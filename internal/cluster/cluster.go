// Package cluster implements relational clustering over a precomputed
// dissimilarity matrix. The paper clusters kernels by the Kendall-tau
// dissimilarity of their Pareto-frontier configuration orderings using
// the R "fossil" package; here we provide PAM (partitioning around
// medoids), the standard relational clustering algorithm, plus
// silhouette scoring for cluster-count diagnostics and an agglomerative
// (average-linkage) alternative used in ablation experiments.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acsel/internal/detrand"
	"acsel/internal/stats"
)

// DissimilarityMatrix is a symmetric n×n matrix of pairwise
// dissimilarities with a zero diagonal. A matrix is either a base
// matrix owning its storage or a Subset view that reindexes a base
// matrix without copying, so a precomputed suite-wide matrix can be
// reused across cross-validation folds.
type DissimilarityMatrix struct {
	n      int       // logical item count
	stride int       // row stride of the base storage
	d      []float64 // base storage, shared with views
	idx    []int     // nil for base matrices; idx[i] is item i's base row
}

// NewDissimilarityMatrix allocates an n×n zero matrix.
func NewDissimilarityMatrix(n int) *DissimilarityMatrix {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: non-positive size %d", n))
	}
	return &DissimilarityMatrix{n: n, stride: n, d: make([]float64, n*n)}
}

// Len returns the number of items.
func (m *DissimilarityMatrix) Len() int { return m.n }

// item maps a logical index to its base-storage row.
func (m *DissimilarityMatrix) item(i int) int {
	if m.idx == nil {
		return i
	}
	return m.idx[i]
}

// At returns the dissimilarity between items i and j.
func (m *DissimilarityMatrix) At(i, j int) float64 {
	return m.d[m.item(i)*m.stride+m.item(j)]
}

// Set assigns the dissimilarity between i and j symmetrically. Views
// returned by Subset are read-only: writing through one would silently
// corrupt the shared base matrix, so Set panics on them.
func (m *DissimilarityMatrix) Set(i, j int, v float64) {
	if m.idx != nil {
		panic("cluster: Set on a Subset view")
	}
	if v < 0 {
		panic(fmt.Sprintf("cluster: negative dissimilarity %v", v))
	}
	m.d[i*m.n+j] = v
	m.d[j*m.n+i] = v
}

// IsView reports whether the matrix is a Subset view sharing another
// matrix's storage.
func (m *DissimilarityMatrix) IsView() bool { return m.idx != nil }

// Subset returns a read-only view of the rows and columns selected by
// idx, in idx order: Subset(m, idx).At(a, b) == m.At(idx[a], idx[b]).
// No dissimilarities are copied or recomputed — the view shares the
// receiver's storage — which is what lets leave-one-out folds reuse one
// full-suite matrix instead of rebuilding the O(n²) pairwise Kendall
// taus per fold. Subsetting a view composes: indices are always
// relative to the receiver. Duplicate indices are permitted (the
// resulting items are indistinguishable, at dissimilarity 0);
// out-of-range indices panic.
func (m *DissimilarityMatrix) Subset(idx []int) *DissimilarityMatrix {
	if len(idx) == 0 {
		panic("cluster: empty Subset")
	}
	mapped := make([]int, len(idx))
	for i, v := range idx {
		if v < 0 || v >= m.n {
			panic(fmt.Sprintf("cluster: Subset index %d out of range [0,%d)", v, m.n))
		}
		mapped[i] = m.item(v)
	}
	return &DissimilarityMatrix{n: len(idx), stride: m.stride, d: m.d, idx: mapped}
}

// Validate checks symmetry and the zero diagonal, returning a
// descriptive error on the first violation.
func (m *DissimilarityMatrix) Validate() error {
	for i := 0; i < m.n; i++ {
		if !stats.AlmostZero(m.At(i, i)) {
			return fmt.Errorf("cluster: nonzero diagonal at %d: %v", i, m.At(i, i))
		}
		for j := i + 1; j < m.n; j++ {
			// NaN first: NaN != NaN would otherwise misreport as asymmetry.
			if math.IsNaN(m.At(i, j)) || math.IsNaN(m.At(j, i)) {
				return fmt.Errorf("cluster: NaN at (%d,%d)", i, j)
			}
			if !stats.AlmostEqual(m.At(i, j), m.At(j, i)) {
				return fmt.Errorf("cluster: asymmetry at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// ValidateBounded checks the full matrix contract tests and callers
// rely on: symmetry, zero diagonal, no NaNs (all via Validate), and
// every entry within [0, max]. The paper's frontier-order
// dissimilarities live in [0, 1]; other metrics may pass a different
// bound.
func (m *DissimilarityMatrix) ValidateBounded(max float64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if d := m.At(i, j); d < 0 || d > max {
				return fmt.Errorf("cluster: dissimilarity %v at (%d,%d) outside [0,%v]", d, i, j, max)
			}
		}
	}
	return nil
}

// Result describes a clustering of n items into k groups.
type Result struct {
	// Assignments[i] is the cluster index (0..K-1) of item i.
	Assignments []int
	// Medoids[c] is the item index serving as the medoid of cluster c
	// (PAM only; -1 for agglomerative results).
	Medoids []int
	// Cost is the total within-cluster dissimilarity to medoids (PAM)
	// or the sum of within-cluster average dissimilarities.
	Cost float64
	// K is the number of clusters.
	K int
}

// ErrBadK is returned when k is out of the valid range [1, n].
var ErrBadK = errors.New("cluster: k out of range")

// PAM runs partitioning-around-medoids with a deterministic seeded
// BUILD phase followed by SWAP iterations until convergence. The seed
// makes runs reproducible; different seeds may find different local
// optima for hard instances.
func PAM(m *DissimilarityMatrix, k int, seed int64) (*Result, error) {
	return PAMRand(m, k, detrand.New(seed))
}

// PAMRand is PAM with an injected random source, the form the globalrand
// lint check pushes toward: the caller owns seeding, so a whole training
// pipeline can share one explicitly-seeded stream and stay reproducible
// end to end. rng is only consulted to break exact ties in the BUILD
// phase.
func PAMRand(m *DissimilarityMatrix, k int, rng *rand.Rand) (*Result, error) {
	n := m.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	if rng == nil {
		return nil, errors.New("cluster: nil *rand.Rand injected")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	medoids := buildPhase(m, k, rng)
	assign, cost := assignToMedoids(m, medoids)

	// SWAP phase: consider replacing each medoid with each non-medoid;
	// greedily take the best improving swap until none improves.
	for iter := 0; iter < 100; iter++ {
		bestDelta := 0.0
		bestM, bestH := -1, -1
		isMedoid := make(map[int]bool, k)
		for _, md := range medoids {
			isMedoid[md] = true
		}
		for mi, md := range medoids {
			for h := 0; h < n; h++ {
				if isMedoid[h] {
					continue
				}
				trial := append([]int(nil), medoids...)
				trial[mi] = h
				_, trialCost := assignToMedoids(m, trial)
				if delta := trialCost - cost; delta < bestDelta-1e-12 {
					bestDelta = delta
					bestM, bestH = mi, h
				}
			}
			_ = md
		}
		if bestM < 0 {
			break
		}
		medoids[bestM] = bestH
		assign, cost = assignToMedoids(m, medoids)
	}

	sortMedoidsCanonical(medoids, assign)
	assign, cost = assignToMedoids(m, medoids)
	return &Result{Assignments: assign, Medoids: medoids, Cost: cost, K: k}, nil
}

// buildPhase selects initial medoids: the first minimizes total
// dissimilarity; each subsequent choice maximizes cost reduction.
// The injected rng only breaks exact ties, keeping the phase
// deterministic for a fixed seed.
func buildPhase(m *DissimilarityMatrix, k int, rng *rand.Rand) []int {
	n := m.Len()
	medoids := make([]int, 0, k)

	// First medoid: item minimizing the sum of dissimilarities.
	best, bestSum := -1, math.Inf(1)
	order := rng.Perm(n) // tie-break order
	for _, i := range order {
		s := 0.0
		for j := 0; j < n; j++ {
			s += m.At(i, j)
		}
		if s < bestSum {
			best, bestSum = i, s
		}
	}
	medoids = append(medoids, best)

	for len(medoids) < k {
		bestGain, bestItem := -1.0, -1
		for _, i := range order {
			if contains(medoids, i) {
				continue
			}
			gain := 0.0
			for j := 0; j < n; j++ {
				if contains(medoids, j) || j == i {
					continue
				}
				dNearest := nearestMedoidDist(m, medoids, j)
				if d := m.At(i, j); d < dNearest {
					gain += dNearest - d
				}
			}
			if gain > bestGain {
				bestGain, bestItem = gain, i
			}
		}
		medoids = append(medoids, bestItem)
	}
	return medoids
}

func nearestMedoidDist(m *DissimilarityMatrix, medoids []int, j int) float64 {
	best := math.Inf(1)
	for _, md := range medoids {
		if d := m.At(md, j); d < best {
			best = d
		}
	}
	return best
}

func assignToMedoids(m *DissimilarityMatrix, medoids []int) ([]int, float64) {
	n := m.Len()
	ownCluster := make(map[int]int, len(medoids))
	for c, md := range medoids {
		ownCluster[md] = c
	}
	assign := make([]int, n)
	cost := 0.0
	for i := 0; i < n; i++ {
		// A medoid always anchors its own cluster; without this,
		// duplicate items at dissimilarity 0 would collapse clusters.
		if c, isMedoid := ownCluster[i]; isMedoid {
			assign[i] = c
			continue
		}
		bestC, bestD := 0, math.Inf(1)
		for c, md := range medoids {
			if d := m.At(md, i); d < bestD {
				bestC, bestD = c, d
			}
		}
		assign[i] = bestC
		cost += bestD
	}
	return assign, cost
}

// sortMedoidsCanonical orders medoids by item index so results are
// stable across runs regardless of discovery order.
func sortMedoidsCanonical(medoids []int, _ []int) {
	sort.Ints(medoids)
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Silhouette computes the mean silhouette coefficient of a clustering:
// s(i) = (b(i) − a(i)) / max(a(i), b(i)) where a is the mean
// within-cluster dissimilarity and b the mean dissimilarity to the
// nearest other cluster. Values near 1 indicate tight, well-separated
// clusters. Singleton clusters contribute 0 (the standard convention).
func Silhouette(m *DissimilarityMatrix, assign []int) float64 {
	n := m.Len()
	if len(assign) != n {
		panic("cluster: assignment length mismatch")
	}
	if n == 0 {
		return 0
	}
	k := 0
	for _, a := range assign {
		if a+1 > k {
			k = a + 1
		}
	}
	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	total := 0.0
	for i := 0; i < n; i++ {
		ci := assign[i]
		if sizes[ci] <= 1 {
			continue // s(i) = 0 for singletons
		}
		sumTo := make([]float64, k)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sumTo[assign[j]] += m.At(i, j)
		}
		a := sumTo[ci] / float64(sizes[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			if v := sumTo[c] / float64(sizes[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue // single-cluster clustering: silhouette undefined → 0
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}

// Agglomerative performs average-linkage hierarchical clustering,
// cutting the dendrogram at k clusters. Used as an ablation alternative
// to PAM.
func Agglomerative(m *DissimilarityMatrix, k int) (*Result, error) {
	n := m.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, k, n)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// active clusters as member lists
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	for len(clusters) > k {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				d := avgLinkage(m, clusters[i], clusters[j])
				if d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := append(append([]int(nil), clusters[bi]...), clusters[bj]...)
		next := make([][]int, 0, len(clusters)-1)
		for idx, c := range clusters {
			if idx != bi && idx != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	// Canonical labeling: clusters ordered by smallest member.
	sort.Slice(clusters, func(a, b int) bool {
		return minInt(clusters[a]) < minInt(clusters[b])
	})
	assign := make([]int, n)
	cost := 0.0
	for c, members := range clusters {
		for _, i := range members {
			assign[i] = c
		}
		cost += avgLinkage(m, members, members)
	}
	medoids := make([]int, len(clusters))
	for i := range medoids {
		medoids[i] = -1
	}
	return &Result{Assignments: assign, Medoids: medoids, Cost: cost, K: k}, nil
}

func avgLinkage(m *DissimilarityMatrix, a, b []int) float64 {
	s, cnt := 0.0, 0
	for _, i := range a {
		for _, j := range b {
			if i == j {
				continue
			}
			s += m.At(i, j)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return s / float64(cnt)
}

func minInt(xs []int) int {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// BestK sweeps k over [kmin, kmax] with PAM and returns the k with the
// highest silhouette. The paper settled on k=5 empirically; this helper
// reproduces that kind of sweep for the ablation bench.
func BestK(m *DissimilarityMatrix, kmin, kmax int, seed int64) (int, float64, error) {
	if kmin < 2 {
		kmin = 2
	}
	if kmax > m.Len() {
		kmax = m.Len()
	}
	if kmin > kmax {
		return 0, 0, fmt.Errorf("%w: empty sweep range [%d,%d]", ErrBadK, kmin, kmax)
	}
	bestK, bestS := kmin, math.Inf(-1)
	for k := kmin; k <= kmax; k++ {
		res, err := PAM(m, k, seed)
		if err != nil {
			return 0, 0, err
		}
		if s := Silhouette(m, res.Assignments); s > bestS {
			bestK, bestS = k, s
		}
	}
	return bestK, bestS, nil
}
