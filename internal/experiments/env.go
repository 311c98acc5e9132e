// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the index). Each experiment is a function
// returning a typed result with a Render method that prints the same rows
// or series the paper reports.
//
// All experiments run on the same substrate, built by internal/sim: a
// simulated namespace, its authoritative server, a recursive resolver
// cluster, and a traffic generator — scaled by a sim.Scale so that tests
// and benches run in milliseconds while the CLI reproduces full-size runs.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/sim"
)

// trainAndMine trains the classifier on one day's labeled zones and mines
// that same day at the paper's conservative θ = 0.9.
func trainAndMine(env *sim.Env, byName map[string][]*chrstat.RRStat) ([]core.Finding, error) {
	_, findings, err := env.MineWindow(byName, 0.9, "", nil)
	return findings, err
}

// GoogleNames matches names under google.com.
func GoogleNames(name string) bool {
	return dnsname.IsSubdomainOf(name, "google.com")
}

// AkamaiNames matches names under the registry's CDN zones (the paper's
// Akamai footnote lists eight 2LDs; the registry mirrors that set).
func AkamaiNames(name string) bool {
	for _, zone := range []string{
		"akamai.net", "akamaiedge.net", "akamaihd.net", "edgesuite.net",
		"akadns.net", "cloudshard.net",
	} {
		if dnsname.IsSubdomainOf(name, zone) {
			return true
		}
	}
	return false
}

// renderTable formats rows with aligned columns for terminal output.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// dateAt returns midnight UTC of 2011-12-01 plus day offset, anchoring the
// multi-day December experiments.
func dateAt(offset int) time.Time {
	return time.Date(2011, 11, 28, 0, 0, 0, 0, time.UTC).AddDate(0, 0, offset)
}
