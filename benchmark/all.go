package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// document is what -all writes: every workload's end-to-end and
// per-layer metrics from one commit on one host. -compare reads two of
// them. The last key is always "claim": null — the benchmark measures,
// it never claims a gain.
type document struct {
	Benchmark    string        `json:"benchmark"`
	Quick        bool          `json:"quick"`
	Seed         uint64        `json:"seed"`
	Seconds      float64       `json:"seconds"`
	Host         hostInfo      `json:"host"`
	EndToEnd     []docMetric   `json:"end_to_end"`
	Workloads    []workloadDoc `json:"workloads"`
	Expectations []expectation `json:"expectations"`
	Claim        *string       `json:"claim"`
}

// docMetric repeats an end-to-end metric's definition inside the
// document, so -compare judges a document by the bounds it was written
// under.
type docMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor,omitempty"`
}

// workloadDoc is one workload's section of the document.
type workloadDoc struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	StatsDigest string                 `json:"stats_digest"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedFrac  float64                `json:"failed_frac"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	Timings     map[string]timing      `json:"timings,omitempty"`
	MaxRelErr   *float64               `json:"max_rel_err,omitempty"`
	ErrBound    *float64               `json:"err_bound,omitempty"`
	Table2Err   *float64               `json:"table2_err,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Notes       []string               `json:"notes,omitempty"`
}

// expectation is a number found while sizing the benchmark, recorded so
// that a full run confirms or corrects it.
type expectation struct {
	What     string  `json:"what"`
	Expected string  `json:"expected"`
	Measured float64 `json:"measured"`
	Holds    bool    `json:"holds"`
}

// runAll measures every workload in both passes, each pass in its own
// sequential child process so that resident memory and heap state never
// leak from one workload into the next and a crash costs only that
// workload, and writes the document.
func runAll(opt runOpts, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Benchmark: "consim", Quick: opt.quick, Seed: opt.seed, Seconds: opt.seconds, Host: host()}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docMetric{d.Name, d.Unit, d.Better, d.Bound, d.Floor})
	}
	for _, w := range workloads() {
		wd := workloadDoc{Name: w.name, Why: w.why}
		passes := []int{0, 1}
		if opt.quick {
			passes = passes[:1] // a smoke run takes no trace
		}
		for _, trace := range passes {
			fmt.Fprintf(os.Stderr, "benchmark: %s, trace %d\n", w.name, trace)
			res, det, err := runChild(exe, w.name, opt, trace)
			if err != nil {
				// The child died without a result: its operations failed.
				wd.Attempted++
				wd.Failed++
				wd.Notes = append(wd.Notes, fmt.Sprintf("trace %d: %v", trace, err))
				continue
			}
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			wd.Notes = append(wd.Notes, det.Notes...)
			if trace == 1 {
				wd.PerLayer = res.Metrics
				if det.StatsDigest != wd.StatsDigest {
					wd.Failed++
					wd.Notes = append(wd.Notes, fmt.Sprintf("traced pass stats_digest %s differs from %s", det.StatsDigest, wd.StatsDigest))
				}
				continue
			}
			wd.EndToEnd, wd.Timings, wd.StatsDigest = res.Metrics, det.Timings, det.StatsDigest
			wd.MaxRelErr, wd.ErrBound, wd.Table2Err = det.MaxRelErr, det.ErrBound, det.Table2Err
		}
		wd.FailedFrac = ratio(float64(wd.Failed), float64(wd.Attempted))
		doc.Workloads = append(doc.Workloads, wd)
	}
	if !opt.quick { // a smoke run's shrunken budgets say nothing about them
		doc.Expectations = expectations(doc)
	}
	for _, e := range doc.Expectations {
		verdict := "confirmed"
		if !e.Holds {
			verdict = "corrected"
		}
		fmt.Fprintf(os.Stderr, "benchmark: expectation %s: expected %s, measured %.4g: %s\n", e.What, e.Expected, e.Measured, verdict)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(outPath, buf, 0o644)
}

// runChild re-executes this binary for one workload and one pass and
// parses the detail line and the result line from its output.
func runChild(exe, name string, opt runOpts, trace int) (result, detail, error) {
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-tmp", opt.tmpDir,
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, detail{}, fmt.Errorf("child: %w", err)
	}
	return parseRun(out)
}

// parseRun extracts the detail line and the final result line from a
// single-workload run's output.
func parseRun(out []byte) (result, detail, error) {
	var res result
	var det detail
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return res, det, fmt.Errorf("detail line: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return res, det, err
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, det, fmt.Errorf("result line: %w", err)
	}
	return res, det, nil
}

// metric looks a value up in a document: an end-to-end metric first,
// then a per-layer one; NaN when the workload or metric is missing.
func (d document) metric(workload, name string) float64 {
	for _, w := range d.Workloads {
		if w.Name != workload {
			continue
		}
		if m, ok := w.EndToEnd[name]; ok {
			return m.Value
		}
		if m, ok := w.PerLayer[name]; ok {
			return m.Value
		}
	}
	return math.NaN()
}

func (d document) workload(name string) workloadDoc {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return workloadDoc{}
}

// expectations checks the numbers found while sizing the benchmark and
// the predictions the workloads were chosen on.
func expectations(d document) []expectation {
	deref := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	var out []expectation
	add := func(what, expected string, measured float64, holds bool) {
		if math.IsNaN(measured) || math.IsInf(measured, 0) {
			return // the run that would have measured it died; its workload already says so
		}
		out = append(out, expectation{what, expected, measured, holds})
	}

	sp := d.metric("mix4_s16_pdes2", "core.pdes_speedup")
	add("mix4_s16_pdes2 speed against its sequential reference (core.pdes_speedup)",
		"about 0.5x on 2 CPUs", sp, sp >= 0.35 && sp <= 0.75)

	ss := d.metric("mix4_s16_sampled", "core.sample_speedup")
	add("mix4_s16_sampled speed against a detailed run of its stream (core.sample_speedup)",
		"several times faster (at least 2x)", ss, ss >= 2)
	se := deref(d.workload("mix4_s16_sampled").MaxRelErr)
	add("mix4_s16_sampled max_rel_err against mix4_s16", "at most 0.05", se, se <= 0.05)

	te := deref(d.workload("iso_tpch_private").Table2Err)
	add("iso_tpch_private table2_err", "about 0.05", te, math.Abs(te-0.05) <= 0.02)

	if t, ok := d.workload("mix4_paper").Timings["refs_per_s"]; ok && t.Median > 0 {
		spread := (t.Max - t.Min) / t.Median
		add("mix4_paper one-run spread of refs_per_s, (max-min)/median", "about 0.14 (+-7%)", spread, spread <= 0.14)
	}

	for _, layer := range []struct{ metric, against string }{
		{"coherence.share", "iso_tpch_private"},
		{"memctrl.share", "mix4_paper"},
	} {
		low, high := d.metric("iso_tpch_shared", layer.metric), d.metric(layer.against, layer.metric)
		add(fmt.Sprintf("%s on iso_tpch_shared over its value on %s", layer.metric, layer.against),
			"below a quarter", low/high, low < high/4)
	}
	return out
}
