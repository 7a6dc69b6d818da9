package naming

import (
	"errors"
	"testing"

	"shadowedit/internal/wire"
)

func tildeRig() (*Universe, *TildeSpace) {
	u := NewUniverse("dom")
	u.AddHost("alpha")
	u.AddHost("beta")
	u.DefineTree("cs.proj.solver", "alpha", "/export/solver")
	ts := u.NewTildeSpace()
	ts.Bind("~solver", "cs.proj.solver")
	return u, ts
}

func TestTildeResolve(t *testing.T) {
	_, ts := tildeRig()
	n, err := ts.Resolve("~solver/src/main.f")
	if err != nil {
		t.Fatal(err)
	}
	want := Name{Host: "alpha", Path: "/export/solver/src/main.f"}
	if n != want {
		t.Fatalf("Resolve = %v, want %v", n, want)
	}
}

func TestTildeResolveTreeRootItself(t *testing.T) {
	_, ts := tildeRig()
	n, err := ts.Resolve("~solver")
	if err != nil {
		t.Fatal(err)
	}
	if n.Path != "/export/solver" {
		t.Fatalf("Resolve(~solver) = %v", n)
	}
}

func TestTildeFileRefIndependentOfLocation(t *testing.T) {
	u, ts := tildeRig()
	ref1, err := ts.FileRef("~solver/src/main.f")
	if err != nil {
		t.Fatal(err)
	}
	want := wire.FileRef{Domain: "dom", FileID: "~cs.proj.solver:/src/main.f"}
	if ref1 != want {
		t.Fatalf("FileRef = %v, want %v", ref1, want)
	}
	// Migrate the tree to another machine: "the files may migrate from a
	// machine to another without altering the user's view."
	u.DefineTree("cs.proj.solver", "beta", "/disk2/solver")
	ref2, err := ts.FileRef("~solver/src/main.f")
	if err != nil {
		t.Fatal(err)
	}
	if ref2 != ref1 {
		t.Fatalf("FileRef changed across migration: %v -> %v", ref1, ref2)
	}
	// Resolution, however, now lands on the new host.
	n, err := ts.Resolve("~solver/src/main.f")
	if err != nil {
		t.Fatal(err)
	}
	if n.Host != "beta" || n.Path != "/disk2/solver/src/main.f" {
		t.Fatalf("post-migration Resolve = %v", n)
	}
}

func TestTildeDifferentUsersSameFile(t *testing.T) {
	// "Different users may refer to the same file by different tilde
	// names" — both must produce the same FileRef.
	u, ts1 := tildeRig()
	ts2 := u.NewTildeSpace()
	ts2.Bind("~work", "cs.proj.solver")
	r1, err := ts1.FileRef("~solver/a.f")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ts2.FileRef("~work/a.f")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same file, different refs: %v vs %v", r1, r2)
	}
}

func TestTildeReadWrite(t *testing.T) {
	u, ts := tildeRig()
	if err := ts.WriteFile("~solver/data.in", []byte("42\n")); err != nil {
		t.Fatal(err)
	}
	// Visible through the ordinary name space too.
	got, err := u.ReadFile("alpha", "/export/solver/data.in")
	if err != nil || string(got) != "42\n" {
		t.Fatalf("cross-view read = %q, %v", got, err)
	}
	back, err := ts.ReadFileInto(nil, "~solver/data.in")
	if err != nil || string(back) != "42\n" {
		t.Fatalf("tilde read = %q, %v", back, err)
	}
}

func TestTildeMigrationMovesView(t *testing.T) {
	u, ts := tildeRig()
	if err := ts.WriteFile("~solver/f", []byte("on alpha\n")); err != nil {
		t.Fatal(err)
	}
	// Simulate migration: admin copies the content and re-defines the
	// tree (the registry models only names, not data movement).
	if err := u.WriteFile("beta", "/disk2/solver/f", []byte("on beta\n")); err != nil {
		t.Fatal(err)
	}
	u.DefineTree("cs.proj.solver", "beta", "/disk2/solver")
	got, err := ts.ReadFileInto(nil, "~solver/f")
	if err != nil || string(got) != "on beta\n" {
		t.Fatalf("post-migration read = %q, %v", got, err)
	}
}

func TestTildeErrors(t *testing.T) {
	u, ts := tildeRig()
	if _, err := ts.Resolve("/not/tilde"); err == nil {
		t.Error("non-tilde name accepted")
	}
	if _, err := ts.Resolve("~unbound/x"); !errors.Is(err, ErrUnknownTree) {
		t.Errorf("unbound tilde err = %v", err)
	}
	ts.Bind("~ghost", "tree.that.is.not.defined")
	if _, err := ts.Resolve("~ghost/x"); !errors.Is(err, ErrUnknownTree) {
		t.Errorf("undefined tree err = %v", err)
	}
	if _, err := ts.FileRef("~ghost/x"); !errors.Is(err, ErrUnknownTree) {
		t.Errorf("undefined tree FileRef err = %v", err)
	}
	_ = u
}

func TestTildePathCleaning(t *testing.T) {
	_, ts := tildeRig()
	a, err := ts.FileRef("~solver/src/../src/./main.f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.FileRef("~solver/src/main.f")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("uncleaned path produced different ref: %v vs %v", a, b)
	}
}

func TestTildeMountUnderTree(t *testing.T) {
	// The tree root can itself sit on a mounted file system; ordinary
	// resolution continues below the root.
	u, ts := tildeRig()
	alpha, _ := u.Host("alpha")
	alpha.Mount("/export/solver/shared", "beta", "/real/shared")
	n, err := ts.Resolve("~solver/shared/lib.f")
	if err != nil {
		t.Fatal(err)
	}
	if n.Host != "beta" || n.Path != "/real/shared/lib.f" {
		t.Fatalf("Resolve through mount = %v", n)
	}
}

func TestTreeRoot(t *testing.T) {
	u, _ := tildeRig()
	root, ok := u.trees().root("cs.proj.solver")
	if !ok || root.Host != "alpha" {
		t.Fatalf("TreeRoot = %v, %v", root, ok)
	}
	if _, ok := u.trees().root("nope"); ok {
		t.Fatal("TreeRoot found undefined tree")
	}
}

func TestIsTilde(t *testing.T) {
	if !IsTilde("~x/y") || IsTilde("/x/y") || IsTilde("") {
		t.Fatal("IsTilde misclassifies")
	}
}
