package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenOutputs pins the paper outputs byte for byte: the default
// run (every experiment but chaos) and the full chaos sweep, both with
// the command's default flags. A change that moves a number must
// regenerate the file with -update and explain the diff.
func TestGoldenOutputs(t *testing.T) {
	for _, exp := range []string{"all", "chaos"} {
		t.Run(exp, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, exp, 3, 5, 0, "", "all", 1, ""); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", exp+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
					var g, w string
					if i < len(gotLines) {
						g = gotLines[i]
					}
					if i < len(wantLines) {
						w = wantLines[i]
					}
					if g != w {
						t.Fatalf("%s differs from the golden file at line %d:\ngot:  %q\nwant: %q\n(rerun with -update if the change is intended)", path, i+1, g, w)
					}
				}
			}
		})
	}
}
