// Package naming implements the paper's name resolution design (§5.3, §6.5).
//
// A supercomputer serves clients from heterogeneous environments, so a file
// name typed at a user site must be reduced to a globally unique name before
// it reaches the server — otherwise the same file submitted under two names
// (aliases, symlinks, or NFS mounts seen from different hosts) would be
// cached twice, wasting space and risking incoherent updates.
//
// Following the paper, a client's name space is a *domain* plus a unique file
// id within it. This package models an NFS universe (hosts with symlink
// tables, hard-link aliases and NFS mount tables) and implements the paper's
// iterative resolution algorithm: resolve aliases and symbolic links to an
// absolute path on the local host; if any prefix of that path belongs to a
// mounted file system, consult the mount table and continue resolution on
// the exporting host; iterate (NFS permits no circularities) until the name
// reduces to a unique (host, path) pair within the domain.
//
// The Directory type is the server half: one mapping per domain from file
// ids to cached shadow identifiers, so a file submitted from two different
// hosts of one NFS domain has a single cached copy.
package naming

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"shadowedit/internal/wire"
)

// Errors reported by resolution.
var (
	// ErrNotAbsolute reports a relative path with no working directory.
	ErrNotAbsolute = errors.New("naming: path not absolute")
	// ErrUnknownHost reports a host absent from the universe.
	ErrUnknownHost = errors.New("naming: unknown host")
	// ErrTooManyLinks reports a symlink or mount cycle (NFS forbids
	// circularities; we detect rather than hang).
	ErrTooManyLinks = errors.New("naming: too many levels of links or mounts")
	// ErrNotExist reports a missing file.
	ErrNotExist = errors.New("naming: file does not exist")
)

// Name is a resolved, canonical (host, path) pair — unique within a domain.
type Name struct {
	Host string
	Path string
}

// String renders the name as host:path, the file-id form used on the wire.
func (n Name) String() string { return n.Host + ":" + n.Path }

// Universe is one naming domain: a set of hosts cross-mounting each other's
// file systems, as in the paper's NFS environment.
type Universe struct {
	domain string

	mu         sync.RWMutex
	hosts      map[string]*FS
	tildeTrees *treeRegistry
}

// NewUniverse creates an empty domain with the given globally unique id
// ("an internet network number may serve as a unique domain id").
func NewUniverse(domain string) *Universe {
	return &Universe{domain: domain, hosts: make(map[string]*FS)}
}

// Domain returns the domain id.
func (u *Universe) Domain() string { return u.domain }

// AddHost adds (or returns) a host.
func (u *Universe) AddHost(name string) *FS {
	u.mu.Lock()
	defer u.mu.Unlock()
	if fs, ok := u.hosts[name]; ok {
		return fs
	}
	fs := &FS{
		host:     name,
		mounts:   make(map[string]Name),
		symlinks: make(map[string]string),
		aliases:  make(map[string]string),
		files:    make(map[string][]byte),
	}
	u.hosts[name] = fs
	return fs
}

// Host looks up a host by name.
func (u *Universe) Host(name string) (*FS, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	fs, ok := u.hosts[name]
	return fs, ok
}

// resolutionBudget bounds symlink expansions plus mount hops.
const resolutionBudget = 64

// Resolve reduces (host, path) to its canonical Name using the paper's
// algorithm. path must be absolute.
func (u *Universe) Resolve(host, p string) (Name, error) {
	if !path.IsAbs(p) {
		return Name{}, fmt.Errorf("%w: %q", ErrNotAbsolute, p)
	}
	budget := resolutionBudget
	curHost, curPath := host, p
	for {
		fs, ok := u.Host(curHost)
		if !ok {
			return Name{}, fmt.Errorf("%w: %q", ErrUnknownHost, curHost)
		}
		resolved, err := fs.resolveLocal(curPath, &budget)
		if err != nil {
			return Name{}, err
		}
		// Longest mount-point prefix, if any, moves resolution to the
		// exporting host.
		if mp, target, ok := fs.mountFor(resolved); ok {
			if budget--; budget <= 0 {
				return Name{}, ErrTooManyLinks
			}
			rest := strings.TrimPrefix(resolved, mp)
			curHost = target.Host
			curPath = path.Join(target.Path, rest)
			continue
		}
		// Hard-link aliases reduce to the file's basic name — which may
		// itself contain symlinks, mounts or further aliases, so feed
		// it back through the loop rather than returning it raw.
		if canon, ok := fs.aliasFor(resolved); ok && canon != resolved {
			if budget--; budget <= 0 {
				return Name{}, ErrTooManyLinks
			}
			curPath = canon
			continue
		}
		return Name{Host: curHost, Path: resolved}, nil
	}
}

// FileRef resolves (host, path) and wraps it as the protocol's (domain id,
// file id) pair.
func (u *Universe) FileRef(host, p string) (wire.FileRef, error) {
	n, err := u.Resolve(host, p)
	if err != nil {
		return wire.FileRef{}, err
	}
	return wire.FileRef{Domain: u.domain, FileID: n.String()}, nil
}

// WriteFile stores content at the canonical location of (host, path), so
// writes through any alias or mount hit one copy. A rewrite that fits the
// file's buffer (and fills at least a quarter of it) overwrites it in place:
// nothing outside this package ever holds that buffer — every reader copies
// out under the lock (ReadFile, and through it ReadFileRef and the tilde
// names; FilesUnder reads names only) — and an editor saving a file of about
// the same size every cycle should not cost a file-sized allocation each time.
func (u *Universe) WriteFile(host, p string, content []byte) error {
	n, err := u.Resolve(host, p)
	if err != nil {
		return err
	}
	fs, ok := u.Host(n.Host)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, n.Host)
	}
	fs.mu.Lock()
	if old := fs.files[n.Path]; len(content) > 0 && cap(old) >= len(content) && cap(old)/4 <= len(content) {
		fs.files[n.Path] = append(old[:0], content...)
	} else {
		fs.files[n.Path] = append([]byte(nil), content...)
	}
	fs.mu.Unlock()
	return nil
}

// ReadFile reads the content at the canonical location of (host, path).
func (u *Universe) ReadFile(host, p string) ([]byte, error) {
	n, err := u.Resolve(host, p)
	if err != nil {
		return nil, err
	}
	fs, ok := u.Host(n.Host)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, n.Host)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	content, ok := fs.files[n.Path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, n)
	}
	return append([]byte(nil), content...), nil
}

// FilesUnder resolves (host, p) as a directory and returns its canonical
// Name together with the sorted slash paths, relative to it, of every file
// physically stored beneath it on the resolved host. Files reachable only
// through symlinks or mounts that lead *out* of the directory are not
// enumerated — a workspace is the subtree under its canonical root, which
// keeps the client's and the server's notion of membership identical.
func (u *Universe) FilesUnder(host, p string) (Name, []string, error) {
	n, err := u.Resolve(host, p)
	if err != nil {
		return Name{}, nil, err
	}
	fs, ok := u.Host(n.Host)
	if !ok {
		return Name{}, nil, fmt.Errorf("%w: %q", ErrUnknownHost, n.Host)
	}
	fs.mu.RLock()
	var rels []string
	for fp := range fs.files {
		if fp != n.Path && underneath(n.Path, fp) {
			rels = append(rels, strings.TrimPrefix(fp, n.Path+"/"))
		}
	}
	fs.mu.RUnlock()
	sort.Strings(rels)
	return n, rels, nil
}

// RemoveFile deletes the file at the canonical location of (host, path).
// Removing a file that does not exist is not an error.
func (u *Universe) RemoveFile(host, p string) error {
	n, err := u.Resolve(host, p)
	if err != nil {
		return err
	}
	fs, ok := u.Host(n.Host)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, n.Host)
	}
	fs.mu.Lock()
	delete(fs.files, n.Path)
	fs.mu.Unlock()
	return nil
}

// FS models one host's file name space: its local files plus the tables the
// resolution algorithm consults.
type FS struct {
	host string

	mu       sync.RWMutex
	mounts   map[string]Name   // mount point -> exported (host, path)
	symlinks map[string]string // absolute path -> target (abs or relative)
	aliases  map[string]string // hard link path -> canonical path
	files    map[string][]byte
}

// Host returns the host name.
func (fs *FS) Host() string { return fs.host }

// Mount records that remote (host, path) is mounted at mountPoint, like an
// entry in an NFS mount table.
func (fs *FS) Mount(mountPoint, remoteHost, remotePath string) {
	fs.mu.Lock()
	fs.mounts[path.Clean(mountPoint)] = Name{Host: remoteHost, Path: path.Clean(remotePath)}
	fs.mu.Unlock()
}

// Symlink records a symbolic link. target may be absolute or relative to the
// link's directory.
func (fs *FS) Symlink(link, target string) {
	fs.mu.Lock()
	fs.symlinks[path.Clean(link)] = target
	fs.mu.Unlock()
}

// HardLink records that linkPath is an additional name (hard link) for
// canonicalPath; resolution reduces it to the canonical ("basic") name.
func (fs *FS) HardLink(linkPath, canonicalPath string) {
	fs.mu.Lock()
	fs.aliases[path.Clean(linkPath)] = path.Clean(canonicalPath)
	fs.mu.Unlock()
}

// resolveLocal expands symlinks component by component and lexically cleans
// the path, charging each expansion against budget.
func (fs *FS) resolveLocal(p string, budget *int) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	// Fast path: an already-clean absolute path that touches no symlink
	// resolves to itself. Probing the symlink table with prefix substrings
	// of p costs nothing — string slicing does not copy — so the common
	// case (every name a workstation submits, steady state) performs no
	// allocation at all. path.Clean returns its argument unchanged (and
	// unallocated) when the path is already clean.
	if path.IsAbs(p) && path.Clean(p) == p {
		hit := false
		if len(fs.symlinks) > 0 {
			for i := 1; i < len(p) && !hit; i++ {
				if p[i] == '/' {
					_, hit = fs.symlinks[p[:i]]
				}
			}
			if !hit {
				_, hit = fs.symlinks[p]
			}
		}
		if !hit {
			return p, nil
		}
	}
	comps := strings.Split(path.Clean(p), "/")
	resolved := "/"
	for i := 0; i < len(comps); i++ {
		c := comps[i]
		switch c {
		case "", ".":
			continue
		case "..":
			resolved = path.Dir(resolved)
			continue
		}
		cand := path.Join(resolved, c)
		target, ok := fs.symlinks[cand]
		if !ok {
			resolved = cand
			continue
		}
		if *budget--; *budget <= 0 {
			return "", ErrTooManyLinks
		}
		if !path.IsAbs(target) {
			target = path.Join(resolved, target)
		}
		// Restart with the expanded target followed by the remaining
		// components.
		rest := comps[i+1:]
		comps = append(strings.Split(path.Clean(target), "/"), rest...)
		resolved = "/"
		i = -1
	}
	return resolved, nil
}

// aliasFor returns the canonical path if p is a recorded hard link.
func (fs *FS) aliasFor(p string) (string, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	canon, ok := fs.aliases[p]
	return canon, ok
}

// mountFor returns the longest mount-point prefix of p (at a component
// boundary) and its export target.
func (fs *FS) mountFor(p string) (mountPoint string, target Name, ok bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	best := ""
	for mp := range fs.mounts {
		if !underneath(mp, p) {
			continue
		}
		if len(mp) > len(best) {
			best = mp
		}
	}
	if best == "" {
		return "", Name{}, false
	}
	return best, fs.mounts[best], true
}

// underneath reports whether p equals prefix or lies beneath it.
func underneath(prefix, p string) bool {
	if prefix == "/" {
		return true
	}
	if !strings.HasPrefix(p, prefix) {
		return false
	}
	return len(p) == len(prefix) || p[len(prefix)] == '/'
}

// ShadowID identifies a cached shadow file at the server.
type ShadowID uint64

// Directory is the server-side mapping from (domain id, file id) pairs to
// shadow identifiers: "for each domain, it maintains a directory that maps
// each file identifier within that domain into the unique identifier of the
// cached version".
type Directory struct {
	mu      sync.Mutex
	domains map[string]map[string]ShadowID
	next    ShadowID
	// refs is the reverse mapping, indexed by ShadowID-1 (ids are allocated
	// sequentially from 1); it lets operator views name cached entries.
	refs []wire.FileRef
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{domains: make(map[string]map[string]ShadowID)}
}

// Lookup finds the shadow id for a file reference.
func (d *Directory) Lookup(ref wire.FileRef) (ShadowID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dom, ok := d.domains[ref.Domain]
	if !ok {
		return 0, false
	}
	id, ok := dom[ref.FileID]
	return id, ok
}

// Intern returns the shadow id for a file reference, allocating one on first
// use.
func (d *Directory) Intern(ref wire.FileRef) ShadowID {
	d.mu.Lock()
	defer d.mu.Unlock()
	dom, ok := d.domains[ref.Domain]
	if !ok {
		dom = make(map[string]ShadowID)
		d.domains[ref.Domain] = dom
	}
	if id, ok := dom[ref.FileID]; ok {
		return id
	}
	d.next++
	dom[ref.FileID] = d.next
	d.refs = append(d.refs, ref)
	return d.next
}

// RefOf returns the file reference a shadow id was interned for — the
// reverse of Intern, used when presenting cache contents to operators.
func (d *Directory) RefOf(id ShadowID) (wire.FileRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 1 || int(id) > len(d.refs) {
		return wire.FileRef{}, false
	}
	return d.refs[id-1], true
}

// IDsUnder returns the interned files of one domain whose file ids lie
// beneath the given prefix (a canonical "host:/abs/dir" with no trailing
// slash), as parallel slices of slash paths relative to the prefix and
// their shadow ids. This is the server half of directory reconciliation:
// the files the server summarizes for a workspace are exactly the ids it
// has ever interned beneath the workspace root.
func (d *Directory) IDsUnder(domain, prefix string) (rels []string, ids []ShadowID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for fileID, id := range d.domains[domain] {
		if len(fileID) > len(prefix)+1 && fileID[len(prefix)] == '/' &&
			strings.HasPrefix(fileID, prefix) {
			rels = append(rels, fileID[len(prefix)+1:])
			ids = append(ids, id)
		}
	}
	return rels, ids
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

// Len returns the total number of interned files across domains.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, dom := range d.domains {
		n += len(dom)
	}
	return n
}
