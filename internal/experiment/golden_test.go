package experiment

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this tree")

const tablesGolden = "testdata/tables.golden"

// block is one spec's rendered tables under its golden name,
// "<section>/<id>" or "<section>/<id> -ci".
type block struct{ name, text string }

// checkTables runs every spec at tinyOptions(), and again with CI at two
// replicas wherever that rendering shows an RE half-width, and compares
// the text of every table with the section's blocks of
// testdata/tables.golden. With -update it rewrites that section instead.
func checkTables(t *testing.T, section string, specs []Spec) {
	var want map[string]string
	if !*update {
		want = readTables(t)
	}
	var got []block
	for _, spec := range specs {
		t.Run(spec.ID, func(t *testing.T) {
			blocks := []block{{section + "/" + spec.ID, render(spec.Run(tinyOptions()))}}
			o := tinyOptions()
			o.Replicas, o.CI = 2, true
			if ci := render(spec.Run(o)); strings.Contains(ci, "±") {
				blocks = append(blocks, block{section + "/" + spec.ID + " -ci", ci})
			}
			got = append(got, blocks...)
			for _, b := range blocks {
				if want == nil {
					continue
				}
				if w, ok := want[b.name]; !ok {
					t.Errorf("%s: no golden block (run with -update to add it)", b.name)
				} else if w != b.text {
					t.Errorf("%s diverges from golden:\n got:\n%s\nwant:\n%s", b.name, b.text, w)
				}
			}
		})
	}
	if *update {
		if t.Failed() {
			t.Fatal("not writing the golden file from a failing run")
		}
		writeTables(t, section, got)
		return
	}
	produced := map[string]bool{}
	for _, b := range got {
		produced[b.name] = true
	}
	for name := range want {
		if strings.HasPrefix(name, section+"/") && !produced[name] {
			t.Errorf("golden block %s was not produced (stale?)", name)
		}
	}
}

// render joins the text of tables the way cmd/figures prints them.
func render(tables []*Table) string {
	texts := make([]string, len(tables))
	for i, tab := range tables {
		texts[i] = tab.Text()
	}
	return strings.Join(texts, "\n")
}

// The golden file is "# comment" header lines, one of which is
// "# goarch <GOARCH>", then blocks: a "=== <name>" line, the block's
// text, and one blank line. readTables returns nil, and the specs run
// unchecked, on another GOARCH, where fused multiply-add may move the
// last printed digit.
func readTables(t *testing.T) map[string]string {
	t.Helper()
	blocks := parseTables(t)
	if blocks == nil {
		return nil
	}
	want := make(map[string]string, len(blocks))
	for _, b := range blocks {
		want[b.name] = b.text
	}
	return want
}

func parseTables(t *testing.T) []block {
	t.Helper()
	raw, err := os.ReadFile(tablesGolden)
	if os.IsNotExist(err) && *update {
		return nil
	}
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var blocks []block
	for _, l := range strings.SplitAfter(string(raw), "\n") {
		if arch, ok := strings.CutPrefix(l, "# goarch "); ok && strings.TrimSpace(arch) != runtime.GOARCH && !*update {
			t.Logf("tables were recorded on GOARCH=%s; running the specs unchecked on %s", strings.TrimSpace(arch), runtime.GOARCH)
			return nil
		}
		switch {
		case strings.HasPrefix(l, "=== "):
			blocks = append(blocks, block{name: strings.TrimSpace(l[4:])})
		case len(blocks) > 0:
			blocks[len(blocks)-1].text += l
		}
	}
	for i := range blocks {
		blocks[i].text = strings.TrimSuffix(blocks[i].text, "\n")
	}
	return blocks
}

// writeTables replaces section's blocks in the golden file with blocks,
// where that section stood, and keeps every other section as it was.
func writeTables(t *testing.T, section string, blocks []block) {
	t.Helper()
	var out []block
	placed := false
	for _, b := range parseTables(t) {
		if !strings.HasPrefix(b.name, section+"/") {
			out = append(out, b)
		} else if !placed {
			out, placed = append(out, blocks...), true
		}
	}
	if !placed {
		out = append(out, blocks...)
	}
	var buf strings.Builder
	buf.WriteString("# Every table the figure, ablation and compare specs render at tinyOptions(),\n" +
		"# and their -ci rendering at two replicas where it shows RE half-widths.\n" +
		"# Regenerate with\n" +
		"#   go test ./internal/experiment -run 'TestEverySimFigureRunsTiny|TestEveryAblationRunsTiny' -update\n" +
		"# goarch " + runtime.GOARCH + "\n")
	for _, b := range out {
		fmt.Fprintf(&buf, "=== %s\n%s\n", b.name, b.text)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tablesGolden, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
