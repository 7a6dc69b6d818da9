package naming

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"testing"

	"shadowedit/internal/wire"
)

// paperUniverse builds the example from §5.3 of the paper: machine C exports
// /usr; machine A mounts it as /proj1, machine B mounts it as /others, so
// /proj1/foo on A and /others/foo on B are the same file /usr/foo on C.
func paperUniverse() *Universe {
	u := NewUniverse("nfs.purdue")
	u.AddHost("c")
	a := u.AddHost("a")
	b := u.AddHost("b")
	a.Mount("/proj1", "c", "/usr")
	b.Mount("/others", "c", "/usr")
	return u
}

func TestPaperNFSExample(t *testing.T) {
	u := paperUniverse()
	na, err := u.Resolve("a", "/proj1/foo")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := u.Resolve("b", "/others/foo")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := u.Resolve("c", "/usr/foo")
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || nb != nc {
		t.Fatalf("the same file resolved differently: a=%v b=%v c=%v", na, nb, nc)
	}
	if na.Host != "c" || na.Path != "/usr/foo" {
		t.Fatalf("canonical name = %v, want c:/usr/foo", na)
	}
}

func TestResolveTable(t *testing.T) {
	u := NewUniverse("dom")
	h := u.AddHost("h")
	u.AddHost("srv")
	h.Symlink("/tmp/link", "/real/file")
	h.Symlink("/rel", "sub/leaf") // relative target
	h.Symlink("/chain1", "/chain2")
	h.Symlink("/chain2", "/final")
	h.HardLink("/alias/name", "/basic/name")
	h.Mount("/mnt", "srv", "/export")
	h.Symlink("/intomnt", "/mnt/data")

	tests := []struct {
		name string
		give string
		want Name
	}{
		{name: "plain", give: "/plain/file", want: Name{Host: "h", Path: "/plain/file"}},
		{name: "dot segments", give: "/a/./b/../c", want: Name{Host: "h", Path: "/a/c"}},
		{name: "trailing slash", give: "/a/b/", want: Name{Host: "h", Path: "/a/b"}},
		{name: "symlink", give: "/tmp/link", want: Name{Host: "h", Path: "/real/file"}},
		{name: "symlink parent", give: "/tmp/link/deeper", want: Name{Host: "h", Path: "/real/file/deeper"}},
		{name: "relative symlink", give: "/rel", want: Name{Host: "h", Path: "/sub/leaf"}},
		{name: "symlink chain", give: "/chain1", want: Name{Host: "h", Path: "/final"}},
		{name: "hard link", give: "/alias/name", want: Name{Host: "h", Path: "/basic/name"}},
		{name: "mount", give: "/mnt/data/x", want: Name{Host: "srv", Path: "/export/data/x"}},
		{name: "mount root", give: "/mnt", want: Name{Host: "srv", Path: "/export"}},
		{name: "symlink into mount", give: "/intomnt", want: Name{Host: "srv", Path: "/export/data"}},
		{name: "dotdot above root", give: "/../x", want: Name{Host: "h", Path: "/x"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := u.Resolve("h", tt.give)
			if err != nil {
				t.Fatalf("Resolve(%q): %v", tt.give, err)
			}
			if got != tt.want {
				t.Fatalf("Resolve(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestResolveDoesNotTreatSiblingAsMount(t *testing.T) {
	u := NewUniverse("dom")
	h := u.AddHost("h")
	u.AddHost("srv")
	h.Mount("/mnt", "srv", "/export")
	got, err := u.Resolve("h", "/mntx/file")
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != "h" || got.Path != "/mntx/file" {
		t.Fatalf("sibling of mount point resolved as mount: %v", got)
	}
}

func TestResolveLongestMountWins(t *testing.T) {
	u := NewUniverse("dom")
	h := u.AddHost("h")
	u.AddHost("s1")
	u.AddHost("s2")
	h.Mount("/data", "s1", "/d1")
	h.Mount("/data/deep", "s2", "/d2")
	got, err := u.Resolve("h", "/data/deep/file")
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != "s2" || got.Path != "/d2/file" {
		t.Fatalf("Resolve = %v, want s2:/d2/file", got)
	}
}

func TestResolveMountChains(t *testing.T) {
	// a mounts b's /mid, which is itself a mount of c's /root.
	u := NewUniverse("dom")
	a := u.AddHost("a")
	b := u.AddHost("b")
	u.AddHost("c")
	a.Mount("/m", "b", "/mid")
	b.Mount("/mid", "c", "/root")
	got, err := u.Resolve("a", "/m/f")
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != "c" || got.Path != "/root/f" {
		t.Fatalf("Resolve = %v, want c:/root/f", got)
	}
}

func TestResolveErrors(t *testing.T) {
	u := NewUniverse("dom")
	h := u.AddHost("h")
	h.Symlink("/loop", "/loop")
	h.Symlink("/ping", "/pong")
	h.Symlink("/pong", "/ping")
	h.Mount("/badmnt", "ghost", "/x")

	tests := []struct {
		name string
		host string
		path string
		want error
	}{
		{name: "relative path", host: "h", path: "x/y", want: ErrNotAbsolute},
		{name: "unknown host", host: "nope", path: "/x", want: ErrUnknownHost},
		{name: "self symlink loop", host: "h", path: "/loop", want: ErrTooManyLinks},
		{name: "mutual symlink loop", host: "h", path: "/ping", want: ErrTooManyLinks},
		{name: "mount to unknown host", host: "h", path: "/badmnt/f", want: ErrUnknownHost},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := u.Resolve(tt.host, tt.path)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Resolve(%s, %q) err = %v, want %v", tt.host, tt.path, err, tt.want)
			}
		})
	}
}

func TestMountCycleDetected(t *testing.T) {
	u := NewUniverse("dom")
	a := u.AddHost("a")
	b := u.AddHost("b")
	a.Mount("/m", "b", "/m")
	b.Mount("/m", "a", "/m")
	if _, err := u.Resolve("a", "/m/x"); !errors.Is(err, ErrTooManyLinks) {
		t.Fatalf("mount cycle err = %v, want ErrTooManyLinks", err)
	}
}

func TestFileRef(t *testing.T) {
	u := paperUniverse()
	ref, err := u.FileRef("a", "/proj1/foo")
	if err != nil {
		t.Fatal(err)
	}
	want := wire.FileRef{Domain: "nfs.purdue", FileID: "c:/usr/foo"}
	if ref != want {
		t.Fatalf("FileRef = %v, want %v", ref, want)
	}
}

func TestWriteReadThroughAliases(t *testing.T) {
	u := paperUniverse()
	if err := u.WriteFile("a", "/proj1/foo", []byte("data-v1")); err != nil {
		t.Fatal(err)
	}
	got, err := u.ReadFile("b", "/others/foo")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data-v1" {
		t.Fatalf("read through alias = %q, want %q", got, "data-v1")
	}
	// Writing through the other alias updates the same file.
	if err := u.WriteFile("b", "/others/foo", []byte("data-v2")); err != nil {
		t.Fatal(err)
	}
	got, err = u.ReadFile("c", "/usr/foo")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data-v2" {
		t.Fatalf("read canonical = %q, want %q", got, "data-v2")
	}
}

func TestReadFileNotExist(t *testing.T) {
	u := paperUniverse()
	if _, err := u.ReadFile("a", "/proj1/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestReadFileReturnsCopy(t *testing.T) {
	u := paperUniverse()
	if err := u.WriteFile("c", "/usr/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := u.ReadFile("c", "/usr/f")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 'X'
	again, err := u.ReadFile("c", "/usr/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "abc" {
		t.Fatal("ReadFile aliased internal storage")
	}
}

func TestAddHostIdempotent(t *testing.T) {
	u := NewUniverse("d")
	if u.AddHost("x") != u.AddHost("x") {
		t.Fatal("AddHost returned different FS for same name")
	}
}

func TestResolutionIdempotent(t *testing.T) {
	// Property: resolving a canonical name yields itself.
	u := paperUniverse()
	ha, _ := u.Host("a")
	ha.Symlink("/s", "/proj1/dir")
	inputs := []struct{ host, path string }{
		{"a", "/proj1/foo"},
		{"a", "/s/x"},
		{"b", "/others/sub/../foo"},
		{"c", "/usr/foo"},
	}
	for _, in := range inputs {
		n1, err := u.Resolve(in.host, in.path)
		if err != nil {
			t.Fatalf("Resolve(%s, %s): %v", in.host, in.path, err)
		}
		n2, err := u.Resolve(n1.Host, n1.Path)
		if err != nil {
			t.Fatalf("re-Resolve(%v): %v", n1, err)
		}
		if n1 != n2 {
			t.Fatalf("resolution not idempotent: %v -> %v", n1, n2)
		}
	}
}

func TestDirectoryInternStable(t *testing.T) {
	d := NewDirectory()
	ref1 := wire.FileRef{Domain: "dom1", FileID: "c:/usr/foo"}
	ref2 := wire.FileRef{Domain: "dom1", FileID: "c:/usr/bar"}
	ref3 := wire.FileRef{Domain: "dom2", FileID: "c:/usr/foo"} // other domain

	id1 := d.Intern(ref1)
	if got := d.Intern(ref1); got != id1 {
		t.Fatal("Intern not stable")
	}
	if d.Intern(ref2) == id1 {
		t.Fatal("different files share a shadow id")
	}
	if d.Intern(ref3) == id1 {
		t.Fatal("same file id in different domains shares a shadow id")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	doms := d.Domains()
	if len(doms) != 2 || doms[0] != "dom1" || doms[1] != "dom2" {
		t.Fatalf("Domains = %v", doms)
	}
}

func TestDirectoryLookup(t *testing.T) {
	d := NewDirectory()
	ref := wire.FileRef{Domain: "d", FileID: "f"}
	if _, ok := d.Lookup(ref); ok {
		t.Fatal("Lookup found unseen ref")
	}
	id := d.Intern(ref)
	got, ok := d.Lookup(ref)
	if !ok || got != id {
		t.Fatalf("Lookup = (%v, %v), want (%v, true)", got, ok, id)
	}
}

func TestDirectoryConcurrentIntern(t *testing.T) {
	d := NewDirectory()
	done := make(chan ShadowID, 32)
	for i := 0; i < 32; i++ {
		go func() {
			done <- d.Intern(wire.FileRef{Domain: "d", FileID: "same"})
		}()
	}
	first := <-done
	for i := 1; i < 32; i++ {
		if id := <-done; id != first {
			t.Fatal("concurrent Intern returned different ids for one file")
		}
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestNameString(t *testing.T) {
	n := Name{Host: "h", Path: "/p/q"}
	if n.String() != "h:/p/q" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestManyHostsManyMounts(t *testing.T) {
	// A chain of 10 hosts each mounting the next; resolution walks to
	// the end within budget.
	u := NewUniverse("chain")
	for i := 0; i < 10; i++ {
		u.AddHost(fmt.Sprintf("h%d", i))
	}
	for i := 0; i < 9; i++ {
		fs, _ := u.Host(fmt.Sprintf("h%d", i))
		fs.Mount("/next", fmt.Sprintf("h%d", i+1), "/next")
	}
	last, _ := u.Host("h9")
	_ = last
	got, err := u.Resolve("h0", "/next/file")
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != "h9" || got.Path != "/next/file" {
		t.Fatalf("Resolve = %v, want h9:/next/file", got)
	}
}

func TestPropertyResolutionAlwaysTerminates(t *testing.T) {
	// Random universes with arbitrary (possibly cyclic) symlink and
	// mount tables: Resolve must always return — a canonical name or an
	// error — never hang or panic. Non-error results must be idempotent.
	rng := rand.New(rand.NewSource(77))
	comps := []string{"a", "b", "c", "d"}
	randPath := func() string {
		n := rng.Intn(3) + 1
		p := ""
		for i := 0; i < n; i++ {
			p += "/" + comps[rng.Intn(len(comps))]
		}
		return p
	}
	for trial := 0; trial < 200; trial++ {
		u := NewUniverse("dom")
		hosts := []string{"h0", "h1", "h2"}
		for _, h := range hosts {
			u.AddHost(h)
		}
		for i := 0; i < 6; i++ {
			fs, _ := u.Host(hosts[rng.Intn(len(hosts))])
			switch rng.Intn(3) {
			case 0:
				target := randPath()
				if rng.Intn(2) == 0 {
					target = target[1:] // relative
				}
				fs.Symlink(randPath(), target)
			case 1:
				fs.Mount(randPath(), hosts[rng.Intn(len(hosts))], randPath())
			case 2:
				fs.HardLink(randPath(), randPath())
			}
		}
		for probe := 0; probe < 10; probe++ {
			host := hosts[rng.Intn(len(hosts))]
			name, err := u.Resolve(host, randPath())
			if err != nil {
				continue // cycles and budgets are legitimate errors
			}
			again, err := u.Resolve(name.Host, name.Path)
			if err != nil {
				t.Fatalf("trial %d: canonical name %v failed to re-resolve: %v", trial, name, err)
			}
			if again != name {
				t.Fatalf("trial %d: resolution not idempotent: %v -> %v", trial, name, again)
			}
		}
	}
}

// TestWriteFileInPlace: a rewrite that fits overwrites the file's buffer
// instead of allocating a new one, which is only sound because no reader ever
// holds that buffer — what ReadFile returned before the rewrite must not
// change under the caller.
func TestWriteFileInPlace(t *testing.T) {
	u := NewUniverse("d")
	u.AddHost("ws")
	first := bytes.Repeat([]byte("a"), 4096)
	if err := u.WriteFile("ws", "/f", first); err != nil {
		t.Fatal(err)
	}
	held, err := u.ReadFile("ws", "/f")
	if err != nil {
		t.Fatal(err)
	}
	second := bytes.Repeat([]byte("b"), 4000)
	if n := testing.AllocsPerRun(20, func() { _ = u.WriteFile("ws", "/f", second) }); n != 0 {
		t.Errorf("a same-size rewrite allocates %.0f times", n)
	}
	if !bytes.Equal(held, first) {
		t.Fatal("a rewrite changed bytes ReadFile had already handed out")
	}
	if got, _ := u.ReadFile("ws", "/f"); !bytes.Equal(got, second) {
		t.Fatalf("read back %d bytes of %q, want the rewrite", len(got), got[:1])
	}
	// Much smaller or larger content gets a buffer of its own size, and an
	// empty rewrite leaves an empty file, not a missing one.
	for _, content := range [][]byte{[]byte("tiny"), bytes.Repeat([]byte("c"), 9000), {}} {
		if err := u.WriteFile("ws", "/f", content); err != nil {
			t.Fatal(err)
		}
		if got, err := u.ReadFile("ws", "/f"); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("after writing %d bytes read %d, %v", len(content), len(got), err)
		}
	}
}

// HardLink records that linkPath is an additional name (hard link) for
// canonicalPath; resolution reduces it to the canonical ("basic") name.
func (fs *FS) HardLink(linkPath, canonicalPath string) {
	fs.mu.Lock()
	fs.aliases[path.Clean(linkPath)] = path.Clean(canonicalPath)
	fs.mu.Unlock()
}

// Domains lists the known domain ids, sorted.
func (d *Directory) Domains() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.domains))
	for dom := range d.domains {
		out = append(out, dom)
	}
	sort.Strings(out)
	return out
}
