package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/congestion"
	"repro/internal/dynamics"
	"repro/internal/planetlab"
	"repro/internal/topology"
)

// CorrelationLevel selects how congested links cluster inside correlation
// sets, matching the Figure-3 captions.
type CorrelationLevel int

const (
	// HighCorrelation: more than 2 congested links per correlation set.
	HighCorrelation CorrelationLevel = iota
	// LooseCorrelation: up to 2 congested links per correlation set.
	LooseCorrelation
)

// String implements fmt.Stringer.
func (l CorrelationLevel) String() string {
	switch l {
	case HighCorrelation:
		return "high"
	case LooseCorrelation:
		return "loose"
	default:
		return fmt.Sprintf("CorrelationLevel(%d)", int(l))
	}
}

// Scenario is a fully specified experiment input.
type Scenario struct {
	Name     string
	Topology *topology.Topology
	// Model is the ground truth congestion process for static (i.i.d.
	// per-snapshot) scenarios; nil when Process is set.
	Model congestion.Model
	// Process, when non-nil, is a time-indexed congestion process replacing
	// the i.i.d. Model draw: the simulator evolves it snapshot by snapshot
	// (netsim.Config.Process). Truth then holds its stationary marginals.
	Process dynamics.Process
	// Truth[k] is the exact P(Xek = 1) (static) or the stationary long-run
	// congestion probability (dynamic).
	Truth []float64
	// CongestedLinks are the links with Truth > 0.
	CongestedLinks *bitset.Set
	// PotentiallyCongested are the links participating in at least one path
	// that traverses a congested link — the population over which the paper
	// computes its error metrics.
	PotentiallyCongested *bitset.Set
	// Mislabeled are links participating in an unknown correlation pattern
	// (Figure 5); empty otherwise.
	Mislabeled *bitset.Set
	// Unidentifiable are links made unidentifiable by construction
	// (Figure 4); empty otherwise.
	Unidentifiable *bitset.Set
}

// finalize computes Truth, CongestedLinks and PotentiallyCongested.
func finalize(s *Scenario) {
	if s.Process != nil {
		s.Truth = s.Process.StationaryMarginals()
	} else {
		s.Truth = congestion.Marginals(s.Model)
	}
	nl := s.Topology.NumLinks()
	s.CongestedLinks = bitset.New(nl)
	for k, p := range s.Truth {
		if p > 1e-12 {
			s.CongestedLinks.Add(k)
		}
	}
	congestedPaths := s.Topology.Coverage(s.CongestedLinks)
	s.PotentiallyCongested = bitset.New(nl)
	congestedPaths.ForEach(func(pid int) bool {
		s.PotentiallyCongested.UnionWith(s.Topology.PathLinkSet(topology.PathID(pid)))
		return true
	})
	if s.Mislabeled == nil {
		s.Mislabeled = bitset.New(nl)
	}
	if s.Unidentifiable == nil {
		s.Unidentifiable = bitset.New(nl)
	}
}

// FromTopologyConfig parameterizes FromTopology.
type FromTopologyConfig struct {
	Topology      *topology.Topology
	FracCongested float64
	Level         CorrelationLevel
	PMin, PMax    float64
	Seed          int64
}

// FromTopology builds a congestion scenario for an arbitrary measurement
// topology (e.g. one loaded from JSON): a shared-cause process over the
// topology's own correlation sets, with congested links placed according to
// the correlation level. This is the generic entry point used by cmd/tomo.
func FromTopology(cfg FromTopologyConfig) (*Scenario, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("scenario: nil topology")
	}
	if cfg.FracCongested <= 0 || cfg.FracCongested > 1 {
		return nil, fmt.Errorf("scenario: FracCongested = %v, want (0,1]", cfg.FracCongested)
	}
	if cfg.PMin <= 0 {
		cfg.PMin = 0.05
	}
	if cfg.PMax <= cfg.PMin {
		cfg.PMax = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	top := cfg.Topology
	nl := top.NumLinks()
	target := int(cfg.FracCongested*float64(nl) + 0.5)
	if target < 1 {
		target = 1
	}

	group := make([]int, nl)
	for k := range group {
		group[k] = top.SetOf(topology.LinkID(k))
	}
	causeProb := make([]float64, top.NumSets())
	participation := make([]float64, nl)
	idio := make([]float64, nl)
	congested := bitset.New(nl)
	targetMarginal := func() float64 { return cfg.PMin + (cfg.PMax-cfg.PMin)*rng.Float64() }

	perCluster := 2
	minSize := 2
	if cfg.Level == HighCorrelation {
		perCluster = 1 << 30
		minSize = 3
	}
	for _, p := range rng.Perm(top.NumSets()) {
		if congested.Len() >= target {
			break
		}
		links := top.CorrelationSet(p).Indices()
		if len(links) < minSize {
			continue
		}
		q := 0.2 + 0.4*rng.Float64()
		causeProb[p] = q
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		n := len(links)
		if n > perCluster {
			n = perCluster
		}
		for _, k := range links[:n] {
			participation[k] = 1
			m := targetMarginal()
			if m < q {
				m = q + (1-q)*0.1*rng.Float64()
			}
			b := 1 - (1-m)/(1-q)
			if b < 0 {
				b = 0
			}
			idio[k] = b
			congested.Add(k)
		}
	}
	perSet := map[int]int{}
	congested.ForEach(func(k int) bool {
		perSet[group[k]]++
		return true
	})
	for _, k := range rng.Perm(nl) {
		if congested.Len() >= target {
			break
		}
		if congested.Contains(k) {
			continue
		}
		if cfg.Level == LooseCorrelation && perSet[group[k]] >= 2 {
			continue
		}
		idio[k] = targetMarginal()
		congested.Add(k)
		perSet[group[k]]++
	}

	model, err := congestion.NewSharedCause(group, causeProb, participation, idio)
	if err != nil {
		return nil, fmt.Errorf("scenario: building shared-cause model: %w", err)
	}
	s := &Scenario{
		Name:     fmt.Sprintf("topology/frac=%.2f/%s", cfg.FracCongested, cfg.Level),
		Topology: top,
		Model:    model,
	}
	finalize(s)
	return s, nil
}

// BriteConfig parameterizes a Brite congestion scenario.
type BriteConfig struct {
	// Net is the pre-generated AS/router topology pair.
	Net *brite.Network
	// FracCongested is the fraction of AS-level links that are congested.
	FracCongested float64
	// Level selects high (>2 per set) or loose (≤2 per set) clustering of
	// the congested links.
	Level CorrelationLevel
	// PMin/PMax bound the target per-link congestion probabilities
	// (defaults 0.05 / 0.5).
	PMin, PMax float64
	// Seed drives probability assignment.
	Seed int64
}

// Brite assigns router-level congestion probabilities so that the requested
// fraction of AS-level links is congested with the requested correlation
// level, exactly as in the paper: probabilities live on router-level links,
// and AS-level marginals/joints are derived from them.
func Brite(cfg BriteConfig) (*Scenario, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("scenario: nil brite network")
	}
	if cfg.FracCongested <= 0 || cfg.FracCongested > 1 {
		return nil, fmt.Errorf("scenario: FracCongested = %v, want (0,1]", cfg.FracCongested)
	}
	if cfg.PMin <= 0 {
		cfg.PMin = 0.05
	}
	if cfg.PMax <= cfg.PMin {
		cfg.PMax = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	top := cfg.Net.Topology
	nl := top.NumLinks()
	target := int(cfg.FracCongested*float64(nl) + 0.5)
	if target < 1 {
		target = 1
	}

	routerP := make([]float64, cfg.Net.NumRouterLinks)
	congested := bitset.New(nl)

	// Inverted index: router link -> AS links backed by it (internal links
	// only; the middle backing element is the dedicated inter-AS link).
	idx := cfg.Net.SharedRouterIndex()
	targetMarginal := func() float64 { return cfg.PMin + (cfg.PMax-cfg.PMin)*rng.Float64() }

	// congestCluster congests all AS links sharing router link r: a shared
	// probability on r plus per-link top-ups on each link's dedicated
	// inter-AS backing link.
	congestCluster := func(r int) {
		links := idx[r]
		shared := 0.2 + 0.4*rng.Float64()
		routerP[r] = shared
		for _, k := range links {
			m := targetMarginal()
			if m < shared {
				m = shared + (1-shared)*0.1*rng.Float64()
			}
			// 1−(1−shared)(1−priv) = m  ⇒  priv = 1 − (1−m)/(1−shared)
			priv := 1 - (1-m)/(1-shared)
			if priv < 0 {
				priv = 0
			}
			inter := cfg.Net.Backing[k][1]
			routerP[inter] = priv
			congested.Add(k)
		}
	}

	// Candidate shared router links by cluster size.
	var big, pairs []int // |idx[r]| ≥ 3, == 2
	for r, links := range idx {
		if cfg.Net.InternalOf[r] == -1 {
			continue // inter-AS links are dedicated, never shared
		}
		switch {
		case len(links) >= 3:
			big = append(big, r)
		case len(links) == 2:
			pairs = append(pairs, r)
		}
	}
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	// Rank big clusters by how many measurement paths traverse two or more
	// of their links: those are the clusters whose correlation actually
	// shows up in end-to-end observations ("highly correlated" congested
	// links in the paper's sense). The stable sort keeps the shuffled order
	// within equal counts.
	crossings := func(r int) int {
		n := 0
		for _, p := range top.Paths() {
			hits := 0
			ls := top.PathLinkSet(p.ID)
			for _, k := range idx[r] {
				if ls.Contains(k) {
					hits++
					if hits >= 2 {
						n++
						break
					}
				}
			}
		}
		return n
	}
	crossCount := make(map[int]int, len(big))
	for _, r := range big {
		crossCount[r] = crossings(r)
	}
	sort.SliceStable(big, func(i, j int) bool { return crossCount[big[i]] > crossCount[big[j]] })

	usable := func(r int) bool {
		// Avoid double-congesting: skip clusters touching already congested
		// links (keeps the count controllable).
		for _, k := range idx[r] {
			if congested.Contains(k) {
				return false
			}
		}
		return true
	}

	switch cfg.Level {
	case HighCorrelation:
		for _, r := range big {
			remaining := target - congested.Len()
			if remaining <= 0 {
				break
			}
			// Avoid overshooting the congested-fraction target: a shared
			// router link congests its whole cluster at once.
			if len(idx[r]) > remaining+1 {
				continue
			}
			if usable(r) {
				congestCluster(r)
			}
		}
		// Fill any shortfall with pair clusters, then singletons.
		for _, r := range pairs {
			if target-congested.Len() < 2 {
				break
			}
			if usable(r) {
				congestCluster(r)
			}
		}
	case LooseCorrelation:
		// Pairs only: at most 2 congested links per correlation set, still
		// genuinely correlated through the shared router link.
		perSet := map[int]int{}
		for _, r := range pairs {
			if congested.Len() >= target {
				break
			}
			if !usable(r) {
				continue
			}
			set := top.SetOf(topology.LinkID(idx[r][0]))
			if perSet[set] > 0 {
				continue
			}
			congestCluster(r)
			perSet[set] += len(idx[r])
		}
	default:
		return nil, fmt.Errorf("scenario: unknown correlation level %d", int(cfg.Level))
	}

	// Singleton fill: independent congested links on dedicated inter-AS
	// backings, at most 2 per correlation set in loose mode.
	perSet := map[int]int{}
	congested.ForEach(func(k int) bool {
		perSet[top.SetOf(topology.LinkID(k))]++
		return true
	})
	for _, k := range rng.Perm(nl) {
		if congested.Len() >= target {
			break
		}
		if congested.Contains(k) {
			continue
		}
		set := top.SetOf(topology.LinkID(k))
		if cfg.Level == LooseCorrelation && perSet[set] >= 2 {
			continue
		}
		routerP[cfg.Net.Backing[k][1]] = targetMarginal()
		congested.Add(k)
		perSet[set]++
	}

	model, err := congestion.NewRouterBacked(cfg.Net.Backing, routerP)
	if err != nil {
		return nil, fmt.Errorf("scenario: building router-backed model: %w", err)
	}
	s := &Scenario{
		Name:     fmt.Sprintf("brite/frac=%.2f/%s", cfg.FracCongested, cfg.Level),
		Topology: top,
		Model:    model,
	}
	finalize(s)
	return s, nil
}

// PlanetLabConfig parameterizes a PlanetLab congestion scenario.
type PlanetLabConfig struct {
	Net           *planetlab.Network
	FracCongested float64
	Level         CorrelationLevel
	PMin, PMax    float64
	Seed          int64
}

// PlanetLab assigns a shared-cause congestion process over the mesh's
// contiguous link clusters: each congested cluster shares a hidden cause
// (the shared LAN / domain resource), with idiosyncratic per-link top-ups.
func PlanetLab(cfg PlanetLabConfig) (*Scenario, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("scenario: nil planetlab network")
	}
	if cfg.FracCongested <= 0 || cfg.FracCongested > 1 {
		return nil, fmt.Errorf("scenario: FracCongested = %v, want (0,1]", cfg.FracCongested)
	}
	if cfg.PMin <= 0 {
		cfg.PMin = 0.05
	}
	if cfg.PMax <= cfg.PMin {
		cfg.PMax = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	top := cfg.Net.Topology
	nl := top.NumLinks()
	target := int(cfg.FracCongested*float64(nl) + 0.5)
	if target < 1 {
		target = 1
	}

	group := make([]int, nl)
	copy(group, cfg.Net.ClusterOf)
	causeProb := make([]float64, cfg.Net.NumClusters)
	participation := make([]float64, nl)
	idio := make([]float64, nl)
	congested := bitset.New(nl)

	members := map[int][]int{}
	for k, c := range group {
		members[c] = append(members[c], k)
	}
	clusters := rng.Perm(cfg.Net.NumClusters)
	targetMarginal := func() float64 { return cfg.PMin + (cfg.PMax-cfg.PMin)*rng.Float64() }

	congestInCluster := func(c, maxLinks int) {
		links := members[c]
		if len(links) > maxLinks {
			cp := append([]int{}, links...)
			rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
			links = cp[:maxLinks]
		}
		q := 0.1 + 0.3*rng.Float64()
		causeProb[c] = q
		for _, k := range links {
			participation[k] = 1
			m := targetMarginal()
			if m < q {
				m = q + (1-q)*0.1*rng.Float64()
			}
			// 1−(1−q)(1−b) = m ⇒ b = 1 − (1−m)/(1−q)
			b := 1 - (1-m)/(1-q)
			if b < 0 {
				b = 0
			}
			idio[k] = b
			congested.Add(k)
		}
	}

	for _, c := range clusters {
		if congested.Len() >= target {
			break
		}
		switch cfg.Level {
		case HighCorrelation:
			if len(members[c]) >= 3 {
				congestInCluster(c, len(members[c]))
			}
		case LooseCorrelation:
			if len(members[c]) >= 2 {
				congestInCluster(c, 2)
			}
		default:
			return nil, fmt.Errorf("scenario: unknown correlation level %d", int(cfg.Level))
		}
	}
	// Singleton fill with independent idiosyncratic congestion (respecting
	// the loose-mode ≤2-per-set cap).
	fillPerSet := map[int]int{}
	congested.ForEach(func(k int) bool {
		fillPerSet[group[k]]++
		return true
	})
	for _, k := range rng.Perm(nl) {
		if congested.Len() >= target {
			break
		}
		if congested.Contains(k) {
			continue
		}
		if cfg.Level == LooseCorrelation && fillPerSet[group[k]] >= 2 {
			continue
		}
		idio[k] = targetMarginal()
		congested.Add(k)
		fillPerSet[group[k]]++
	}

	model, err := congestion.NewSharedCause(group, causeProb, participation, idio)
	if err != nil {
		return nil, fmt.Errorf("scenario: building shared-cause model: %w", err)
	}
	s := &Scenario{
		Name:     fmt.Sprintf("planetlab/frac=%.2f/%s", cfg.FracCongested, cfg.Level),
		Topology: top,
		Model:    model,
	}
	finalize(s)
	return s, nil
}
