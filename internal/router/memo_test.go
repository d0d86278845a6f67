package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"pbqprl/internal/ate"
	"pbqprl/internal/pbqp"
)

// canonicalOf returns the canonical serialization of a graph text.
func canonicalOf(t testing.TB, text string) []byte {
	t.Helper()
	g, err := pbqp.Read(bytes.NewReader([]byte(text)))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := pbqp.Write(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// ate60Body is the 60-vreg ATE graph BenchmarkGraphCodec reads, in
// canonical form: about 144 KB, the size of a serve_hot body.
func ate60Body(t testing.TB) []byte {
	t.Helper()
	prog, _ := ate.Generate(ate.DefaultMachine(), ate.GenConfig{
		Name: "bench", NumVRegs: 60, PairRatio: 0.30, HardRatio: 0.40, MaxLive: 8, Seed: 3000,
	})
	g, err := ate.BuildPBQP(prog)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := pbqp.Write(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// okBackend is a stub backend that answers every solve with okBody.
func okBackend(t testing.TB) string {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Write([]byte(okBody))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// postBytes sends body to h's /v1/solve, with a chain header when
// chain is not empty.
func postBytes(h http.Handler, body []byte, chain string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if chain != "" {
		req.Header.Set("X-PBQP-Chain", chain)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRawMemoKey pins the memo key: a function of the bytes under one
// router, moved by any one-byte change, different between routers, and
// always "r|" plus a 16-byte tag.
func TestRawMemoKey(t *testing.T) {
	a := newTestRouter(t, testConfig("http://127.0.0.1:1"))
	b := newTestRouter(t, testConfig("http://127.0.0.1:1"))
	body := []byte(fig2)
	key := a.rawCacheKey(body)
	wellFormed := func(k string) {
		t.Helper()
		if len(k) != 2+16 || k[:2] != "r|" {
			t.Fatalf("key %q is not \"r|\" plus 16 bytes", k)
		}
	}
	wellFormed(key)
	if got := a.rawCacheKey(bytes.Clone(body)); got != key {
		t.Fatal("one router gave equal bodies different keys")
	}
	for i := range body {
		flipped := bytes.Clone(body)
		flipped[i] ^= 0x01
		k := a.rawCacheKey(flipped)
		wellFormed(k)
		if k == key {
			t.Fatalf("flipping byte %d left the key unchanged", i)
		}
	}
	for name, v := range map[string][]byte{
		"last byte dropped": body[:len(body)-1],
		"one byte appended": append(bytes.Clone(body), '\n'),
		"empty":             nil,
	} {
		k := a.rawCacheKey(v)
		wellFormed(k)
		if k == key {
			t.Fatalf("%s: key unchanged", name)
		}
	}
	other := b.rawCacheKey(body)
	wellFormed(other)
	if other == key {
		t.Fatal("two routers gave one body the same key")
	}
}

// TestNewRefusedUnderFIPSOnly runs itself again under
// GODEBUG=fips140=only, where cipher.NewGCM refuses a GCM that takes
// any nonce: New must return that error rather than build a router
// whose memo is keyed some other way.
func TestNewRefusedUnderFIPSOnly(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "fips140=only") {
		if _, err := New(testConfig("http://127.0.0.1:1")); err == nil || !strings.Contains(err.Error(), "FIPS 140-only") {
			t.Fatalf("New under fips140=only: %v, want GCM's FIPS 140-only refusal", err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNewRefusedUnderFIPSOnly$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under fips140=only: %v\n%s", err, out)
	}
}

// TestCanonicalHashOncePerGraph counts the SHA-256 passes: a graph's
// first request hashes its canonical bytes, and neither a byte-identical
// repeat nor a new spelling of it hashes anything again.
func TestCanonicalHashOncePerGraph(t *testing.T) {
	r := newTestRouter(t, testConfig(okBackend(t)))
	hashes := func() int64 { return r.reg.Counter("router_canonical_hashes_total").Value() }
	expect := func(rec *httptest.ResponseRecorder, cache string, n int64, what string) {
		t.Helper()
		if rec.Code != http.StatusOK || rec.Header().Get("X-PBQP-Cache") != cache {
			t.Fatalf("%s: %d, cache %q, want 200 %q", what, rec.Code, rec.Header().Get("X-PBQP-Cache"), cache)
		}
		if got := hashes(); got != n {
			t.Fatalf("%s: router_canonical_hashes_total = %d, want %d", what, got, n)
		}
	}

	canon := canonicalOf(t, fig2)
	expect(postBytes(r.Handler(), canon, ""), "miss", 1, "canonical spelling")
	for i := 0; i < 10; i++ {
		expect(postBytes(r.Handler(), canon, ""), "hit", 1, "byte-identical repeat")
	}
	for i := 0; i < 10; i++ {
		respelled := append([]byte(fmt.Sprintf("# respelling %d\n", i)), canon...)
		expect(postBytes(r.Handler(), respelled, ""), "hit", 1, fmt.Sprintf("respelling %d", i))
	}
	expect(postBytes(r.Handler(), []byte(graphN(9)), ""), "miss", 2, "a second graph")
}

// TestPooledBodyNeverOutlivesRequest runs hits, respellings and misses
// of four graphs from eight goroutines at once, so pooled request
// buffers are reused while other requests forward, memoize and replay.
// The backend answers with the SHA-256 of the body it received, so a
// forwarded, memoized or cached byte that came from another request's
// buffer shows as a reply naming the wrong graph; -race sees a write
// into a buffer still being read.
func TestPooledBodyNeverOutlivesRequest(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		sum := sha256.Sum256(b)
		fmt.Fprintf(w, `{"solver":"stub","result":{"feasible":true,"truncated":false},"body":%q}`, hex.EncodeToString(sum[:]))
	}))
	defer ts.Close()
	r := newTestRouter(t, testConfig(ts.URL))

	const graphs, workers, perWorker = 4, 8, 40
	var canon [graphs][]byte
	var want [graphs]string
	for i := range canon {
		canon[i] = canonicalOf(t, graphN(i))
		sum := sha256.Sum256(canon[i])
		want[i] = hex.EncodeToString(sum[:])
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				gi := (w + j) % graphs
				body, chain := canon[gi], ""
				switch j % 3 {
				case 1:
					body = append([]byte(fmt.Sprintf("# worker %d request %d\n", w, j)), body...)
				case 2:
					chain = fmt.Sprintf("stub-%d-%d", w, j)
				}
				rec := postBytes(r.Handler(), body, chain)
				var reply struct {
					Body string `json:"body"`
				}
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d request %d: %d %s", w, j, rec.Code, rec.Body)
				} else if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Body != want[gi] {
					errs <- fmt.Errorf("worker %d request %d (graph %d, cache %s): reply names %q, want %q (%v)",
						w, j, gi, rec.Header().Get("X-PBQP-Cache"), reply.Body, want[gi], err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestByteIdenticalHitAllocatesNoBody holds the hit path to the pooled
// buffer: once one hit has warmed the pool, 50 byte-identical hits of a
// 144 KB body allocate less than 5 body lengths in all (about 2.3; 53.4
// without the pool). Under -race sync.Pool drops a quarter of its Puts
// at random and each dropped buffer costs about two body lengths, so
// the bound there is 50 (19–37 with the pool, 105 without).
func TestByteIdenticalHitAllocatesNoBody(t *testing.T) {
	r := newTestRouter(t, testConfig(okBackend(t)))
	body := ate60Body(t)
	if rec := postBytes(r.Handler(), body, ""); rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("first request: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
	}
	if rec := postBytes(r.Handler(), body, ""); rec.Header().Get("X-PBQP-Cache") != "hit" {
		t.Fatalf("warm hit: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
	}
	const hits = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if rec := postBytes(r.Handler(), body, ""); rec.Header().Get("X-PBQP-Cache") != "hit" {
			t.Fatalf("hit %d: %d, cache %q", i, rec.Code, rec.Header().Get("X-PBQP-Cache"))
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(body))
	limit := 5.0
	if raceEnabled() {
		limit = 50
	}
	t.Logf("%d byte-identical hits of a %d-byte body allocated %.2f body lengths", hits, len(body), got)
	if got >= limit {
		t.Fatalf("%d byte-identical hits allocated %.1f body lengths, want < %g", hits, got, limit)
	}
}

// TestRespelledHitAllocatesOneParse holds a respelled hit to its parse:
// the canonical form is appended into a pooled buffer that goes back to
// the pool, so once one respelled hit has warmed the pool, 50 more of
// the 144 KB body allocate less than one body length each (about 0.6,
// the parse; 1.6 without the Put, and 2.7–3.6 when canonicalize writes
// into a fresh buffer each time). Under -race sync.Pool drops a
// quarter of its Puts at random, and each dropped buffer costs a body
// length, so the bound there is 1.7 (0.95–1.4 with the Put, 1.9–2.3
// without it).
func TestRespelledHitAllocatesOneParse(t *testing.T) {
	r := newTestRouter(t, testConfig(okBackend(t)))
	body := ate60Body(t)
	if rec := postBytes(r.Handler(), body, ""); rec.Header().Get("X-PBQP-Cache") != "miss" {
		t.Fatalf("first request: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
	}
	const hits = 50
	var respelled [hits + 1][]byte // a numbered comment makes each new to the memo
	for i := range respelled {
		respelled[i] = append(fmt.Appendf(nil, "# %d\n", i), body...)
	}
	post := func(b []byte) {
		if rec := postBytes(r.Handler(), b, ""); rec.Header().Get("X-PBQP-Cache") != "hit" {
			t.Fatalf("respelled hit: %d, cache %q", rec.Code, rec.Header().Get("X-PBQP-Cache"))
		}
	}
	post(respelled[hits])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range respelled[:hits] {
		post(b)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(hits*len(body))
	limit := 1.0
	if raceEnabled() {
		limit = 1.7
	}
	t.Logf("%d respelled hits of a %d-byte body allocated %.2f body lengths each", hits, len(body), got)
	if got >= limit {
		t.Fatalf("a respelled hit allocated %.2f body lengths, want < %g", got, limit)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// BenchmarkRouterHit times a cache hit through the router's handler on
// the 144 KB ATE body: identical repeats one byte string (a GHASH pass
// and two lookups), respelled sends a new spelling every time (a parse,
// a canonical write, two GHASH passes and three lookups).
func BenchmarkRouterHit(b *testing.B) {
	r, err := New(testConfig(okBackend(b)))
	if err != nil {
		b.Fatal(err)
	}
	canon := ate60Body(b)
	if rec := postBytes(r.Handler(), canon, ""); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	// A fixed-width comment numbering every respelled request, across
	// the benchmark's rounds, makes each body new to the memo.
	respelled := append([]byte("# 0000000000\n"), canon...)
	seq := 0
	for _, c := range []struct {
		name string
		next func() []byte
	}{
		{"identical", func() []byte { return canon }},
		{"respelled", func() []byte {
			seq++
			for k, n := 11, seq; k >= 2; k, n = k-1, n/10 {
				respelled[k] = '0' + byte(n%10)
			}
			return respelled
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(canon)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := postBytes(r.Handler(), c.next(), ""); rec.Header().Get("X-PBQP-Cache") != "hit" {
					b.Fatalf("request %d: %d, cache %q", i, rec.Code, rec.Header().Get("X-PBQP-Cache"))
				}
			}
		})
	}
}
