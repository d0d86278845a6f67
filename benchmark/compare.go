package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// series collects, per workload, each bounded metric's values over the
// untraced runs of a report, and the share of operations that failed.
type series struct {
	values    map[string][]float64
	attempted int
	failed    int
}

func collect(rep report) map[string]*series {
	out := map[string]*series{}
	for _, res := range rep.Results {
		if res.Traced {
			continue // end-to-end metrics come from untraced runs
		}
		s := out[res.Workload]
		if s == nil {
			s = &series{values: map[string][]float64{}}
			out[res.Workload] = s
		}
		s.attempted += res.Attempted
		s.failed += res.Failed
		for name, m := range res.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out
}

// compareFiles applies the regression bounds to every (metric,
// workload) pair two result files share and prints one row per pair:
// both medians, their ratio with its base, and a verdict. A pair whose
// run-to-run spread in either file exceeds the bound is unresolved, not
// unchanged. It returns 1 on a regression or a higher share of failed
// operations.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareReports(oldRep, newRep, stdout)
}

func compareReports(oldRep, newRep report, stdout io.Writer) int {
	olds, news := collect(oldRep), collect(newRep)
	bounded := append(append([]metricSpec{}, endToEndSpecs...), headlineSpecs...)
	regressions, rows := 0, 0
	fmt.Fprintf(stdout, "%-11s %-32s %14s %14s  %-22s %s\n", "workload", "metric", "old median", "new median", "new/old", "verdict")
	for _, name := range workloadNames {
		o, n := olds[name], news[name]
		if o == nil || n == nil {
			continue
		}
		for _, spec := range bounded {
			ov, nv := o.values[spec.Name], n.values[spec.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			rows++
			om, nm := median(ov), median(nv)
			worse := nm/om - 1 // share by which the new median is worse
			if spec.Better == "higher" {
				worse = 1 - nm/om
			}
			verdict := "ok"
			switch {
			case spread(ov) > spec.Bound || spread(nv) > spec.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound)", 100*spread(ov), 100*spread(nv))
			case worse > spec.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "%-11s %-32s %14.6g %14.6g  %.4f of %-12.6g %s (bound %g%%, %s is better)\n",
				name, spec.Name, om, nm, nm/om, om, verdict, 100*spec.Bound, spec.Better)
		}
		oldShare, newShare := ratio(float64(o.failed), float64(o.attempted)), ratio(float64(n.failed), float64(n.attempted))
		verdict := "ok"
		if newShare > oldShare {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(stdout, "%-11s %-32s %14.6g %14.6g  %-22s %s\n", name, "ops_failed share", oldShare, newShare, "", verdict)
	}
	if rows == 0 {
		fmt.Fprintln(stdout, "no (metric, workload) pair is in both files")
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
