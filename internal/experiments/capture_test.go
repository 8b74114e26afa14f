package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// figureReports holds the reports regenerated so far by this test binary.
// Fig 15b alone is most of the package's test time, so the tests that only
// read a report share one regeneration of it.
var figureReports = map[string]*Report{}

// figureReport regenerates figure id once per test binary.
func figureReport(t *testing.T, id string) *Report {
	t.Helper()
	if r, ok := figureReports[id]; ok {
		return r
	}
	r, err := Figures()[id]()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	figureReports[id] = r
	return r
}

// wallClockSections are the reports that print planner wall-clock times
// (Figs 12–15), the only numbers in `raqo figure all` that depend on the
// host.
var wallClockSections = map[string]bool{"fig12": true, "fig13": true, "fig14": true, "fig15a": true, "fig15b": true}

var (
	sectionLine   = regexp.MustCompile(`^=== ([a-z0-9]+): `)
	separatorLine = regexp.MustCompile(`^-+( +-+)* *$`)
	columnSpan    = regexp.MustCompile(`-+`)
	// A rendered wall-clock cell: milliseconds to two decimals, or a ratio
	// of two of them.
	timingCell = regexp.MustCompile(`^\d+\.\d\dx?$`)
)

// maskWallClock rewrites the rendered tables of the wall-clock sections
// with every timing cell replaced by "<ms>" (and cells re-joined unpadded,
// since a column's width follows its widest timing): a column is a timing
// when its header says "(ms)", or when its table's title says "(ms)" and
// every cell in it reads as one. The deterministic columns of those
// tables — plans considered, resource iterations, the axes — and every
// other line stay as they are.
func maskWallClock(text string) []string {
	lines := strings.Split(text, "\n")
	var out []string
	section := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if m := sectionLine.FindStringSubmatch(line); m != nil {
			section = m[1]
		}
		if !wallClockSections[section] {
			out = append(out, line)
			continue
		}
		if strings.HasPrefix(line, "note: mean RAQO/QO runtime ratio") {
			out = append(out, "note: mean RAQO/QO runtime ratio <ms>")
			continue
		}
		if i+1 >= len(lines) || !separatorLine.MatchString(lines[i+1]) {
			out = append(out, line)
			continue
		}
		// line is a table header, lines[i+1] its separator, the rows run to
		// the next blank line and the title (if any) is the line above.
		spans := columnSpan.FindAllStringIndex(lines[i+1], -1)
		cut := func(s string) []string {
			cells := make([]string, len(spans))
			for c, sp := range spans {
				if sp[0] < len(s) {
					cells[c] = strings.TrimSpace(s[sp[0]:min(sp[1], len(s))])
				}
			}
			return cells
		}
		header := cut(line)
		var rows [][]string
		for i += 2; i < len(lines) && lines[i] != ""; i++ {
			rows = append(rows, cut(lines[i]))
		}
		i-- // the blank line is emitted by the loop
		timedTitle := len(out) > 0 && strings.Contains(out[len(out)-1], "(ms)")
		out = append(out, strings.Join(header, " | "))
		for c := range header {
			timing := strings.Contains(header[c], "(ms)")
			if !timing && timedTitle {
				timing = true
				for _, row := range rows {
					timing = timing && timingCell.MatchString(row[c])
				}
			}
			if timing {
				for _, row := range rows {
					row[c] = "<ms>"
				}
			}
		}
		for _, row := range rows {
			out = append(out, strings.Join(row, " | "))
		}
	}
	return out
}

// TestFiguresMatchCapture holds docs_figures.txt — the committed capture
// of `raqo figure all` — byte-equal to freshly regenerated reports in
// every section, outside the wall-clock cells of Figs 12–15.
func TestFiguresMatchCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure")
	}
	capture, err := os.ReadFile("../../docs_figures.txt")
	if err != nil {
		t.Fatal(err)
	}
	var fresh strings.Builder
	for _, id := range FigureIDs() {
		fresh.WriteString(figureReport(t, id).String())
		fresh.WriteByte('\n') // `raqo figure` prints each report with Println
	}
	got, want := maskWallClock(fresh.String()), maskWallClock(string(capture))
	masked := 0
	for _, line := range want {
		masked += strings.Count(line, "<ms>")
	}
	// 16 + 8 + 18 + 32 + 120 timing cells and one note.
	if masked != 195 {
		t.Errorf("masked %d wall-clock cells of the capture, want 195: the mask rule drifted", masked)
	}
	if len(got) != len(want) {
		t.Fatalf("fresh reports have %d lines, docs_figures.txt has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("docs_figures.txt line %d differs from a fresh run:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
