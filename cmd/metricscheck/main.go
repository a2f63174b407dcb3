// Command metricscheck validates a telemetry export against a JSON
// schema — the CI metrics-smoke gate:
//
//	metricscheck -schema schemas/metrics.schema.json run.json
//	metricscheck -schema schemas/trace.schema.json -jsonl flight.jsonl
//	metricscheck -schema schemas/trace.schema.json -jsonl -trace-sums 5 flight.jsonl
//
// It prints every violation (not just the first) and exits non-zero if
// any were found. With -jsonl the input is JSON lines (the daemon's
// /debug/flight dump or access log) and every line is validated
// independently. -trace-sums PCT additionally checks latency
// attribution on each successful /v1/* request trace: its top-level
// spans must sum to the trace's wall time within PCT percent (plus a
// 200µs absolute slack so microsecond-scale requests don't flap) — the
// acceptance bar CI holds the daemon to.
//
// The validator is the deliberately small JSON-Schema subset in
// internal/obs; the point is catching shape regressions in the
// exporter, not full draft compliance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"eel/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

// traceSumSlackNs matches the daemon tests' absolute slack on the
// span-sum check (internal/daemon/trace_test.go).
const traceSumSlackNs = 200_000

func run() error {
	schemaPath := flag.String("schema", "schemas/metrics.schema.json", "schema to validate against")
	jsonl := flag.Bool("jsonl", false, "input is JSON lines; validate each line independently")
	traceSums := flag.Float64("trace-sums", 0, "with -jsonl: check each 200 /v1/* request trace's top-level spans sum to wall time within this percent")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-schema file] [-jsonl [-trace-sums pct]] input.json")
		os.Exit(2)
	}
	if *traceSums > 0 && !*jsonl {
		return fmt.Errorf("-trace-sums requires -jsonl (it reads trace lines)")
	}
	raw, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	schema, err := obs.ParseSchema(raw)
	if err != nil {
		return err
	}
	if !*jsonl {
		doc, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		errs := schema.Validate(doc)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "metricscheck:", e)
		}
		if len(errs) > 0 {
			return fmt.Errorf("%s: %d schema violations", flag.Arg(0), len(errs))
		}
		fmt.Printf("%s: valid against %s\n", flag.Arg(0), *schemaPath)
		return nil
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var (
		lines, violations, sumsChecked int
	)
	for sc.Scan() {
		lines++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		for _, e := range schema.Validate(line) {
			violations++
			fmt.Fprintf(os.Stderr, "metricscheck: line %d: %v\n", lines, e)
		}
		if *traceSums <= 0 {
			continue
		}
		var tr obs.TraceExport
		if err := json.Unmarshal(line, &tr); err != nil {
			violations++
			fmt.Fprintf(os.Stderr, "metricscheck: line %d: not a trace: %v\n", lines, err)
			continue
		}
		// Only successful API requests carry the full span taxonomy;
		// health checks and error responses attribute differently.
		if tr.Kind != "request" || tr.Code != 200 || !strings.HasPrefix(tr.Route, "/v1/") {
			continue
		}
		sumsChecked++
		sum := tr.TopSpanNs()
		diff := tr.WallNs - sum
		if diff < 0 {
			diff = -diff
		}
		allow := int64(*traceSums/100*float64(tr.WallNs)) + traceSumSlackNs
		if diff > allow {
			violations++
			fmt.Fprintf(os.Stderr,
				"metricscheck: line %d: trace %s (%s): spans sum to %dns of %dns wall (diff %dns > allowed %dns)\n",
				lines, tr.TraceID, tr.Route, sum, tr.WallNs, diff, allow)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if violations > 0 {
		return fmt.Errorf("%s: %d violations across %d lines", flag.Arg(0), violations, lines)
	}
	if *traceSums > 0 {
		fmt.Printf("%s: %d lines valid against %s; %d request traces sum to wall within %g%%\n",
			flag.Arg(0), lines, *schemaPath, sumsChecked, *traceSums)
	} else {
		fmt.Printf("%s: %d lines valid against %s\n", flag.Arg(0), lines, *schemaPath)
	}
	return nil
}
