package naming

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"shadowedit/internal/wire"
)

// Tilde naming, after Comer & Murtagh's Tilde file system, which §5.3
// discusses as an alternative name space: "Tilde scheme organizes the
// directory system into a set of logically independent directory trees
// called tilde trees. Files within a tree are accessed using the tree's
// tilde name and a pathname within that tree. ... The actual location of
// the files is of no consequence to the user and the files may migrate from
// a machine to another without altering the user's view."
//
// Here a tilde tree has a globally unique absolute name and a current root
// location (host, path) that may change (migration). Each user holds a
// TildeSpace binding personal tilde names to absolute tree names. A file
// named "~src/solver/main.f" resolves through the user's binding and the
// tree's current root; its protocol file id is derived from the *absolute
// tree name*, not the current host — so a migrated tree keeps its shadow
// cache entries valid.

// ErrUnknownTree reports an unbound tilde name or unregistered tree.
var ErrUnknownTree = fmt.Errorf("naming: unknown tilde tree")

// treeRegistry is the universe-wide table of tilde trees.
type treeRegistry struct {
	mu    sync.RWMutex
	roots map[string]Name // absolute tree name -> current root
}

// DefineTree registers (or migrates) the tilde tree with the given absolute
// name so that it currently lives at (host, rootPath). Re-defining an
// existing tree moves it: names keep resolving, now to the new location.
func (u *Universe) DefineTree(absName, host, rootPath string) {
	u.trees().define(absName, Name{Host: host, Path: path.Clean(rootPath)})
}

func (u *Universe) trees() *treeRegistry {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.tildeTrees == nil {
		u.tildeTrees = &treeRegistry{roots: make(map[string]Name)}
	}
	return u.tildeTrees
}

func (r *treeRegistry) define(absName string, root Name) {
	r.mu.Lock()
	r.roots[absName] = root
	r.mu.Unlock()
}

func (r *treeRegistry) root(absName string) (Name, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.roots[absName]
	return n, ok
}

// TildeSpace is one user's view of the tilde name space: "Each user
// specifies his own tilde trees that reflects his personal view of the
// hierarchy in the file system."
type TildeSpace struct {
	universe *Universe

	mu    sync.RWMutex
	binds map[string]string // tilde name -> absolute tree name
}

// NewTildeSpace creates an empty per-user binding table.
func (u *Universe) NewTildeSpace() *TildeSpace {
	return &TildeSpace{universe: u, binds: make(map[string]string)}
}

// Bind maps a personal tilde name to an absolute tree name. "Different
// users may refer to the same file by different tilde names."
func (ts *TildeSpace) Bind(tildeName, absTreeName string) {
	ts.mu.Lock()
	ts.binds[strings.TrimPrefix(tildeName, "~")] = absTreeName
	ts.mu.Unlock()
}

// IsTilde reports whether a file name is in tilde form ("~tree/path").
func IsTilde(name string) bool { return strings.HasPrefix(name, "~") }

// split separates "~tree/with/path" into the tree's absolute name and the
// cleaned path within the tree.
func (ts *TildeSpace) split(name string) (absTree, sub string, err error) {
	if !IsTilde(name) {
		return "", "", fmt.Errorf("naming: %q is not a tilde name", name)
	}
	body := strings.TrimPrefix(name, "~")
	tilde, rest, _ := strings.Cut(body, "/")
	ts.mu.RLock()
	absTree, ok := ts.binds[tilde]
	ts.mu.RUnlock()
	if !ok {
		return "", "", fmt.Errorf("%w: %q not bound", ErrUnknownTree, tilde)
	}
	sub = path.Clean("/" + rest)
	return absTree, sub, nil
}

// Resolve maps a tilde name to its current canonical (host, path) location,
// following the tree's root and then the ordinary resolution algorithm
// (symlinks, mounts, aliases under the root still apply).
func (ts *TildeSpace) Resolve(name string) (Name, error) {
	absTree, sub, err := ts.split(name)
	if err != nil {
		return Name{}, err
	}
	root, ok := ts.universe.trees().root(absTree)
	if !ok {
		return Name{}, fmt.Errorf("%w: tree %q not defined", ErrUnknownTree, absTree)
	}
	return ts.universe.Resolve(root.Host, path.Join(root.Path, sub))
}

// FileRef maps a tilde name to its protocol (domain id, file id) pair. The
// file id is built from the tree's absolute name and the path within the
// tree — NOT the current host — so it survives tree migration: the shadow
// server keeps recognizing the file after the tree moves, and cached
// versions stay usable for delta transfer.
func (ts *TildeSpace) FileRef(name string) (wire.FileRef, error) {
	absTree, sub, err := ts.split(name)
	if err != nil {
		return wire.FileRef{}, err
	}
	if _, ok := ts.universe.trees().root(absTree); !ok {
		return wire.FileRef{}, fmt.Errorf("%w: tree %q not defined", ErrUnknownTree, absTree)
	}
	return wire.FileRef{
		Domain: ts.universe.domain,
		FileID: "~" + absTree + ":" + sub,
	}, nil
}

// ReadFileRef reads the current content of a file given its protocol
// reference — the inverse of FileRef/Universe.FileRef. It understands both
// ordinary ("host:/path") and tilde ("~tree:/path") file ids; the client
// uses it to answer server pulls for files its version store no longer (or
// never) retained, for example after a restart. Like ReadFileInto it reads
// into dst's backing array.
func (u *Universe) ReadFileRef(dst []byte, ref wire.FileRef) ([]byte, error) {
	if ref.Domain != u.domain {
		return nil, fmt.Errorf("naming: ref %s belongs to domain %q, not %q", ref, ref.Domain, u.domain)
	}
	if strings.HasPrefix(ref.FileID, "~") {
		absTree, sub, ok := strings.Cut(strings.TrimPrefix(ref.FileID, "~"), ":")
		if !ok {
			return nil, fmt.Errorf("naming: malformed tilde file id %q", ref.FileID)
		}
		root, found := u.trees().root(absTree)
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTree, absTree)
		}
		return u.ReadFileInto(dst, root.Host, path.Join(root.Path, sub))
	}
	host, p, ok := strings.Cut(ref.FileID, ":")
	if !ok {
		return nil, fmt.Errorf("naming: malformed file id %q", ref.FileID)
	}
	return u.ReadFileInto(dst, host, p)
}

// ReadFileInto reads a file by tilde name into dst's backing array, as
// Universe.ReadFileInto does.
func (ts *TildeSpace) ReadFileInto(dst []byte, name string) ([]byte, error) {
	n, err := ts.Resolve(name)
	if err != nil {
		return nil, err
	}
	return ts.universe.ReadFileInto(dst, n.Host, n.Path)
}

// WriteFile writes a file by tilde name.
func (ts *TildeSpace) WriteFile(name string, content []byte) error {
	n, err := ts.Resolve(name)
	if err != nil {
		return err
	}
	return ts.universe.WriteFile(n.Host, n.Path, content)
}
