package lint

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestOracleErrEntriesResolve fails when an OracleErrDeny or
// OracleErrWorkerAPIs entry inside this module names no function or
// method. The analyzer matches entries by name, so a renamed or deleted
// API silently drops out of the list while uplan-lint still exits 0.
func TestOracleErrEntriesResolve(t *testing.T) {
	var entries, paths []string
	seen := map[string]bool{}
	for _, e := range slices.Concat(OracleErrDeny, OracleErrWorkerAPIs) {
		if !strings.HasPrefix(e, "uplan/") {
			continue
		}
		entries = append(entries, e)
		if p := entryPkgPath(e); !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	pkgs, err := Load("../..", paths...)
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				defined[funcFullName(obj)] = true
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					defined[funcFullName(named.Method(i))] = true
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						defined[funcFullName(iface.ExplicitMethod(i))] = true
					}
				}
			}
		}
	}
	for _, e := range entries {
		if !defined[e] {
			t.Errorf("deny-list entry %q names no function or method", e)
		}
	}
}

// entryPkgPath is the import path of a deny-list entry: everything up to
// the first dot after the last slash.
func entryPkgPath(entry string) string {
	slash := strings.LastIndex(entry, "/")
	if dot := strings.Index(entry[slash+1:], "."); dot >= 0 {
		return entry[:slash+1+dot]
	}
	return entry
}
