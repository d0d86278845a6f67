package server

import (
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseKnobs pins the parse pbqp-serve and pbqp-router share: chain
// normalization, deadline validation and cap, header-over-query
// precedence and the cost modes.
func TestParseKnobs(t *testing.T) {
	const def, maxDeadline = 2 * time.Second, 30 * time.Second
	for _, tc := range []struct {
		name    string
		query   url.Values
		headers map[string]string
		want    Knobs
		err     string
	}{
		{name: "defaults", want: Knobs{Deadline: def, CostMode: "zeroinf"}},
		{name: "chain normalized", headers: map[string]string{HeaderChain: " liberty , ,scholz"},
			want: Knobs{Chain: []string{"liberty", "scholz"}, Deadline: def, CostMode: "zeroinf"}},
		{name: "chain of nothing", query: url.Values{"chain": {","}}, err: "chain selects no solvers"},
		{name: "zero deadline", query: url.Values{"deadline": {"0s"}}, err: "positive Go duration"},
		{name: "negative deadline", headers: map[string]string{HeaderDeadline: "-1s"}, err: "positive Go duration"},
		{name: "unparsable deadline", query: url.Values{"deadline": {"abc"}}, err: "positive Go duration"},
		{name: "deadline kept", query: url.Values{"deadline": {"250ms"}},
			want: Knobs{Deadline: 250 * time.Millisecond, CostMode: "zeroinf"}},
		{name: "deadline capped", query: url.Values{"deadline": {"1h"}},
			want: Knobs{Deadline: maxDeadline, CostMode: "zeroinf"}},
		{name: "header wins over query",
			query:   url.Values{"chain": {"brute"}, "deadline": {"1s"}, "cost-mode": {"banana"}},
			headers: map[string]string{HeaderChain: "scholz", HeaderDeadline: "3s", HeaderCostMode: "spill"},
			want:    Knobs{Chain: []string{"scholz"}, Deadline: 3 * time.Second, CostMode: "spill"}},
		{name: "cost-mode empty", query: url.Values{"cost-mode": {""}}, want: Knobs{Deadline: def, CostMode: "zeroinf"}},
		{name: "cost-mode zeroinf", query: url.Values{"cost-mode": {"zeroinf"}}, want: Knobs{Deadline: def, CostMode: "zeroinf"}},
		{name: "cost-mode spill", query: url.Values{"cost-mode": {"spill"}}, want: Knobs{Deadline: def, CostMode: "spill"}},
		{name: "cost-mode unknown", headers: map[string]string{HeaderCostMode: "banana"}, err: `cost-mode wants "zeroinf" or "spill"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/solve?"+tc.query.Encode(), nil)
			for h, v := range tc.headers {
				req.Header.Set(h, v)
			}
			got, err := ParseKnobs(req, def, maxDeadline)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}
