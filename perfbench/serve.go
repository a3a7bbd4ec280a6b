package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/query"
)

// Request space shared by both traffic mixes: caps on a 1/32 W grid
// from capLoW, z on a quarter-unit grid. Every cap and z is an exact
// binary fraction, so the JSON round trip is exact.
const (
	capLoW     = 8.0
	capSteps   = 2048 // caps span [8, 72) W, below and above every kernel's feasible range
	capGridW   = 1.0 / 32
	zSteps     = 9 // z in {0, 0.25, ..., 2}
	zGrid      = 0.25
	hotKernels = 8
	hotCaps    = 8
	hotZ       = 4 // serve-hot's z > 0 is 4 grid steps, z = 1
	// hotZipfS skews serve-hot towards few keys; reloadEvery makes every
	// reloadEvery-th operation of a serve-churn caller a model reload.
	hotZipfS    = 1.2
	reloadEvery = 1000
)

// A caller that outruns its stream wraps around. At the measured rates
// a serve-churn caller does not wrap in 10 s on a 2-vCPU machine;
// serve-hot's keys repeat by design.
const (
	hotStreamLen   = 1 << 16
	churnStreamLen = 1 << 20
)

// reqKey is one request of a stream, compactly.
type reqKey struct {
	kernel uint8
	z      uint8
	cap    uint16
}

func (k reqKey) packed() uint32 { return uint32(k.kernel)<<24 | uint32(k.z)<<16 | uint32(k.cap) }
func (k reqKey) capW() float64  { return capLoW + float64(k.cap)*capGridW }
func (k reqKey) zVal() float64  { return float64(k.z) * zGrid }

type oracleEntry struct {
	preds   []core.Prediction
	cluster int
	minPowW float64
}

type genChange struct {
	at  int
	gen uint8
}

type serve struct {
	churn   bool
	svc     *query.Service
	handler http.Handler
	tmpDir  string
	seed    int64

	kernelIDs  []string
	kernelJSON [][]byte
	models     []*core.Model // generation models: [A] or [A, B]
	hashes     []string
	modelBytes [][]byte
	reloadBody [][]byte
	srs        []core.SampleRuns
	oracle     [][]oracleEntry // [gen][kernel]; built by buildOracle
	hotPairs   []reqKey        // serve-hot (kernel, cap) pairs, in Zipf rank order
	hotKeys    []reqKey        // hotPairs under both z values
	streams    [][]reqKey      // per caller

	// Per-phase records, per caller.
	opsN    []int
	digests [][]uint32
	gens    [][]genChange
	errIdx  [][]int

	repeatedShare float64
}

var digestSeed = maphash.MakeSeed()

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

func mixConfig(h uint64, c apu.Config) uint64 {
	h = mix(h, uint64(c.Device))
	h = mix(h, math.Float64bits(c.CPUFreqGHz))
	h = mix(h, uint64(c.Threads))
	return mix(h, math.Float64bits(c.GPUFreqGHz))
}

// respDigest condenses every field of a response that is a function of
// the request and the model: all but ModelSeq (which reload won the
// race) and the Cached/Coalesced flags (how it was served).
func respDigest(r *query.Response) uint32 {
	h := maphash.String(digestSeed, r.Kernel)
	h = mix(h, maphash.String(digestSeed, r.ModelHash))
	h = mix(h, math.Float64bits(r.CapW))
	h = mix(h, math.Float64bits(r.EffectiveCapW))
	h = mix(h, math.Float64bits(r.Z))
	h = mix(h, math.Float64bits(r.MinPowerW))
	s := &r.Selection
	h = mix(h, uint64(s.ConfigID))
	h = mixConfig(h, s.Config)
	h = mix(h, uint64(s.Cluster))
	if s.MeetsCapPredicted {
		h = mix(h, 1)
	}
	p := &s.Predicted
	h = mix(h, uint64(p.ConfigID))
	h = mixConfig(h, p.Config)
	h = mix(h, math.Float64bits(p.Perf))
	h = mix(h, math.Float64bits(p.PowerW))
	h = mix(h, math.Float64bits(p.PerfStd))
	h = mix(h, math.Float64bits(p.PowerStd))
	return uint32(h ^ h>>32)
}

func setupServeHot(cfg config) (instance, error)   { return setupServe(cfg, false) }
func setupServeChurn(cfg config) (instance, error) { return setupServe(cfg, true) }

// setupServe trains the fold models (one clean evaluation), starts a
// query.Service with default options on the seed's first model, takes
// the oracle's own sample runs of every kernel, picks serve-hot's key
// set, and warms the service.
func setupServe(cfg config, churn bool) (instance, error) {
	ev, err := eval.NewHarness().Run()
	if err != nil {
		return nil, err
	}
	models := foldModels(ev)
	first := int(((cfg.seed % int64(len(models))) + int64(len(models))) % int64(len(models)))
	s := &serve{churn: churn, models: []*core.Model{models[first]}}
	if churn {
		s.models = append(s.models, models[(first+1)%len(models)])
		if err := s.writeModels(cfg.outDir); err != nil {
			s.close()
			return nil, err
		}
	}
	for _, m := range s.models {
		h, err := m.Hash()
		if err != nil {
			s.close()
			return nil, err
		}
		s.hashes = append(s.hashes, h)
	}
	svc, err := query.NewService(s.models[0], query.Options{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.svc = svc
	s.handler = query.NewHandler(svc)
	if err := s.sampleKernels(); err != nil {
		s.close()
		return nil, err
	}
	s.seed = cfg.seed
	if !churn {
		rng := rand.New(rand.NewSource(cfg.seed))
		for _, k := range rng.Perm(len(s.kernelIDs))[:hotKernels] {
			for _, cp := range rng.Perm(capSteps)[:hotCaps] {
				s.hotPairs = append(s.hotPairs, reqKey{kernel: uint8(k), cap: uint16(cp)})
			}
		}
		rng.Shuffle(len(s.hotPairs), func(i, j int) { s.hotPairs[i], s.hotPairs[j] = s.hotPairs[j], s.hotPairs[i] })
		for _, k := range s.hotPairs {
			for _, z := range []uint8{0, hotZ} {
				k.z = z
				s.hotKeys = append(s.hotKeys, k)
			}
		}
	}
	// Warm the shards' prediction vectors (and, for serve-hot, the LRU):
	// users of a long-running service do not pay for them per request.
	warm := s.hotKeys
	if churn {
		for k := range s.kernelIDs {
			warm = append(warm, reqKey{kernel: uint8(k), cap: capSteps / 2})
		}
	}
	for _, k := range warm {
		if _, err := svc.Select(context.Background(), s.request(k)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up select: %w", err)
		}
	}
	return s, nil
}

// writeModels saves both generation models to files the reload
// requests name, and replaces them with the copies loaded back, so the
// service's initial generation has the same content as a reloaded one.
func (s *serve) writeModels(outDir string) error {
	dir, err := os.MkdirTemp(outDir, "churn-models-")
	if err != nil {
		return err
	}
	s.tmpDir = dir
	for g, m := range s.models {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return err
		}
		path, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("model-%d.json", g)))
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		loaded, err := core.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		s.models[g] = loaded
		s.modelBytes = append(s.modelBytes, buf.Bytes())
		body, err := json.Marshal(query.ReloadRequest{Path: path})
		if err != nil {
			return err
		}
		s.reloadBody = append(s.reloadBody, body)
	}
	return nil
}

// sampleKernels lists the suite's kernels and takes their sample runs
// with the benchmark's own profiler, independently of the service.
func (s *serve) sampleKernels() error {
	p := profiler.New()
	for _, c := range kernels.Combos() {
		for _, k := range c.Kernels {
			cpu, err := p.RunConfig(k, apu.SampleConfigCPU(), 0)
			if err != nil {
				return err
			}
			gpu, err := p.RunConfig(k, apu.SampleConfigGPU(), 1)
			if err != nil {
				return err
			}
			id, err := json.Marshal(k.ID())
			if err != nil {
				return err
			}
			s.kernelIDs = append(s.kernelIDs, k.ID())
			s.kernelJSON = append(s.kernelJSON, id)
			s.srs = append(s.srs, core.SampleRuns{CPU: cpu, GPU: gpu})
		}
	}
	return nil
}

// buildOracle computes every kernel's prediction vector under every
// generation model. The vectors are rebuilt for each check and released
// with the phase records, so they never count towards live_heap_mb.
func (s *serve) buildOracle() error {
	s.oracle = nil
	for _, m := range s.models {
		var gen []oracleEntry
		for _, sr := range s.srs {
			preds, cluster, err := m.PredictAll(sr)
			if err != nil {
				return err
			}
			gen = append(gen, oracleEntry{preds: preds, cluster: cluster, minPowW: core.MinPredictedPowerW(preds)})
		}
		s.oracle = append(s.oracle, gen)
	}
	return nil
}

func (s *serve) request(k reqKey) query.Request {
	return query.Request{Kernel: s.kernelIDs[k.kernel], CapW: k.capW(), Z: k.zVal()}
}

// genStreams derives each caller's request stream from the seed. The
// streams are rebuilt per phase and released before the heap is sized,
// so live_heap_mb measures the service, not the load generator.
func (s *serve) genStreams() {
	rng := rand.New(rand.NewSource(s.seed))
	s.streams = nil
	if s.churn {
		for c := 0; c < 2; c++ {
			st := make([]reqKey, churnStreamLen)
			for i := range st {
				st[i] = reqKey{kernel: uint8(rng.Intn(len(s.kernelIDs))), z: uint8(rng.Intn(zSteps)), cap: uint16(rng.Intn(capSteps))}
			}
			s.streams = append(s.streams, st)
		}
		return
	}
	// The Zipf draw picks the (kernel, cap) pair; z is an independent
	// fair coin, so the share of z > 0 requests (which take a different
	// amount of work) does not depend on which pair the seed ranks first.
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(s.hotPairs)-1))
	for c := 0; c < 2; c++ {
		st := make([]reqKey, hotStreamLen)
		for i := range st {
			st[i] = s.hotPairs[zipf.Uint64()]
			st[i].z = uint8(rng.Intn(2)) * hotZ
		}
		s.streams = append(s.streams, st)
	}
}

func (s *serve) startPhase() {
	s.genStreams()
	n := len(s.streams)
	s.opsN = make([]int, n)
	s.digests = make([][]uint32, n)
	s.gens = make([][]genChange, n)
	s.errIdx = make([][]int, n)
	for c := range s.digests {
		s.digests[c] = make([]uint32, 0, 1<<20)
	}
}

func (s *serve) isReload(i int) bool { return s.churn && i%reloadEvery == reloadEvery-1 }

func (s *serve) op(tk *track, caller, i int) (time.Duration, error) {
	s.opsN[caller]++
	k := s.streams[caller][i%len(s.streams[caller])]
	var (
		resp query.Response
		lat  time.Duration
		err  error
	)
	tk.beginOp()
	tk.begin()
	switch {
	case !s.churn:
		tk.begin()
		t0 := time.Now()
		resp, err = s.svc.Select(context.Background(), s.request(k))
		lat = time.Since(t0)
		tk.end(spanSelect)
	case s.isReload(i):
		lat, err = s.reload(tk, caller, i)
	default:
		resp, lat, err = s.post(tk, k)
	}
	tk.end(spanOp)
	if err != nil {
		s.errIdx[caller] = append(s.errIdx[caller], i)
		s.digests[caller] = append(s.digests[caller], 0)
		return lat, err
	}
	if s.isReload(i) {
		s.digests[caller] = append(s.digests[caller], 0)
		return lat, nil
	}
	gen := uint8(len(s.hashes)) // unknown hash
	for g, h := range s.hashes {
		if resp.ModelHash == h {
			gen = uint8(g)
		}
	}
	if g := s.gens[caller]; len(g) == 0 || g[len(g)-1].gen != gen {
		s.gens[caller] = append(g, genChange{at: len(s.digests[caller]), gen: gen})
	}
	s.digests[caller] = append(s.digests[caller], respDigest(&resp))
	return lat, nil
}

// post sends one POST /v1/select through the handler and decodes the
// reply as a client would.
func (s *serve) post(tk *track, k reqKey) (query.Response, time.Duration, error) {
	body := make([]byte, 0, 96)
	body = append(body, `{"kernel":`...)
	body = append(body, s.kernelJSON[k.kernel]...)
	body = append(body, `,"cap_w":`...)
	body = strconv.AppendFloat(body, k.capW(), 'g', -1, 64)
	body = append(body, `,"z":`...)
	body = strconv.AppendFloat(body, k.zVal(), 'g', -1, 64)
	body = append(body, '}')
	req, err := http.NewRequest(http.MethodPost, query.PathSelect, bytes.NewReader(body))
	if err != nil {
		return query.Response{}, 0, err
	}
	rec := httptest.NewRecorder()
	tk.begin()
	t0 := time.Now()
	s.handler.ServeHTTP(rec, req)
	lat := time.Since(t0)
	tk.end(spanHandler)
	var resp query.Response
	if rec.Code != http.StatusOK {
		return resp, lat, fmt.Errorf("select %s: HTTP %d: %s", body, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, lat, fmt.Errorf("select %s: decoding reply: %w", body, err)
	}
	return resp, lat, nil
}

// reload posts a hot reload of one of the two model files; a caller's
// reloads alternate between them.
func (s *serve) reload(tk *track, caller, i int) (time.Duration, error) {
	g := (i/reloadEvery + caller + 1) % len(s.reloadBody)
	req, err := http.NewRequest(http.MethodPost, query.PathModels, bytes.NewReader(s.reloadBody[g]))
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	tk.begin()
	t0 := time.Now()
	s.handler.ServeHTTP(rec, req)
	lat := time.Since(t0)
	tk.end(spanReload)
	if rec.Code != http.StatusOK {
		return lat, fmt.Errorf("reload: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var info query.ModelsInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return lat, fmt.Errorf("reload: decoding reply: %w", err)
	}
	if info.ModelHash != s.hashes[0] && info.ModelHash != s.hashes[1] {
		return lat, fmt.Errorf("reload: live model hash %s is neither model file's", info.ModelHash)
	}
	return lat, nil
}

// expectedResponse is the oracle's answer to request k from generation
// gen: core.SelectAmong over that model's PredictAll for the kernel.
func (s *serve) expectedResponse(k reqKey, gen uint8) (query.Response, bool) {
	if int(gen) >= len(s.oracle) {
		return query.Response{}, false
	}
	o := s.oracle[gen][k.kernel]
	eff := query.QuantizeCapW(k.capW(), query.DefaultCapQuantumW)
	sel, err := core.SelectAmong(o.preds, o.cluster, eff, k.zVal())
	if err != nil {
		return query.Response{}, false
	}
	return query.Response{Kernel: s.kernelIDs[k.kernel], CapW: k.capW(), EffectiveCapW: eff, Z: k.zVal(),
		Selection: sel, MinPowerW: o.minPowW, ModelHash: s.hashes[gen]}, true
}

// checkResponses compares every recorded response of every caller with
// the oracle and returns how many differ or are missing.
func (s *serve) checkResponses() (int, []string) {
	if err := s.buildOracle(); err != nil {
		return len(s.digests), []string{fmt.Sprintf("oracle predictions: %v", err)}
	}
	bad := 0
	var probs []string
	memo := map[uint64]uint32{}
	for c := range s.digests {
		recs := s.digests[c]
		if len(recs) != s.opsN[c] {
			bad += abs(s.opsN[c] - len(recs))
			probs = append(probs, fmt.Sprintf("caller %d: %d responses recorded for %d requests", c, len(recs), s.opsN[c]))
		}
		errs := map[int]bool{}
		for _, i := range s.errIdx[c] {
			errs[i] = true
		}
		gens := s.gens[c]
		gi := 0
		var gen uint8
		for i, d := range recs {
			for gi < len(gens) && gens[gi].at <= i {
				gen = gens[gi].gen
				gi++
			}
			if errs[i] || s.isReload(i) {
				continue
			}
			k := s.streams[c][i%len(s.streams[c])]
			key := uint64(k.packed())<<8 | uint64(gen)
			want, ok := memo[key]
			if !ok {
				r, valid := s.expectedResponse(k, gen)
				want = respDigest(&r)
				if !valid {
					want = ^d // no oracle answer: never matches
				}
				memo[key] = want
			}
			if d != want {
				if bad < 5 {
					probs = append(probs, fmt.Sprintf("caller %d request %d (%+v): response differs from core.SelectAmong for its model", c, i, s.request(k)))
				}
				bad++
			}
		}
	}
	return bad, probs
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (s *serve) verify(traced bool) (int, []string) {
	bad, probs := s.checkResponses()
	if !traced {
		seen := map[uint32]struct{}{}
		total := 0
		for c, n := range s.opsN {
			for i := 0; i < n; i++ {
				if s.isReload(i) {
					continue
				}
				seen[s.streams[c][i%len(s.streams[c])].packed()] = struct{}{}
				total++
			}
		}
		if total > 0 {
			s.repeatedShare = 1 - float64(len(seen))/float64(total)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %.4f of %d requests repeated an earlier key\n", s.repeatedShare, total)
	}
	return bad, probs
}

func (s *serve) dropRecords() {
	s.digests, s.gens, s.errIdx, s.streams, s.oracle = nil, nil, nil, nil, nil
	if s.churn {
		// Which caller finished last decides how many selections the LRU
		// holds at the end of a churn phase. One more generation swap
		// purges them all, so the live heap is sized in the same state
		// after every run.
		live, _ := s.svc.Generation()
		next := s.models[0]
		if live == s.hashes[0] {
			next = s.models[1]
		}
		_, _, _ = s.svc.Reload(next) // both models were reloaded many times in the phase; an error would have failed it
	}
}

func (s *serve) layerMetrics(m metricSet, _ *phaseResult) {
	m.set("load.repeated_key_share", s.repeatedShare, "ratio")
	probePredictAll(m, s.models, s.srs)
	if !s.churn {
		probeSelectAmong(m, s)
		return
	}
	var loadMs, hashMs []float64
	for r := 0; r < 10; r++ {
		b := s.modelBytes[r%len(s.modelBytes)]
		t0 := time.Now()
		model, err := core.Load(bytes.NewReader(b))
		loadMs = append(loadMs, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return
		}
		t0 = time.Now()
		if _, err := model.Hash(); err != nil {
			return
		}
		hashMs = append(hashMs, time.Since(t0).Seconds()*1e3)
	}
	m.set("core.load_ms", median64(loadMs), "ms")
	m.set("core.hash_ms", median64(hashMs), "ms")
	var bodies [][]byte
	for _, k := range s.streams[0][:10000] {
		b, err := json.Marshal(s.request(k))
		if err != nil {
			return
		}
		bodies = append(bodies, b)
	}
	t0 := time.Now()
	for _, b := range bodies {
		if _, err := query.DecodeSelectRequest(bytes.NewReader(b)); err != nil {
			return
		}
	}
	m.set("query.decode_us", time.Since(t0).Seconds()*1e6/float64(len(bodies)), "us")
}

// probeSelectAmong times core.SelectAmong on the serve-hot key set.
func probeSelectAmong(m metricSet, s *serve) {
	if err := s.buildOracle(); err != nil {
		return
	}
	var perCall []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		calls := 0
		for rep := 0; rep < 200; rep++ {
			for _, k := range s.hotKeys {
				o := s.oracle[0][k.kernel]
				if _, err := core.SelectAmong(o.preds, o.cluster, query.QuantizeCapW(k.capW(), query.DefaultCapQuantumW), k.zVal()); err != nil {
					return
				}
				calls++
			}
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	m.set("core.select_among_ns", median64(perCall), "ns")
}

func (s *serve) close() {
	if s.svc != nil {
		s.svc.Close()
	}
	if s.tmpDir != "" {
		_ = os.RemoveAll(s.tmpDir) // scratch copies of the model files; nothing else lives there
	}
}
