// LAN monitor: the paper's Figure 2(a) scenario.
//
// A campus operator monitors the quality of links in her domain with
// tomography, using traceroute to discover the topology. The traceroute
// graph misses the Ethernet switch at the heart of a local-area network, so
// the logical links between the LAN's IP routers silently share the switch's
// physical links — they are correlated. The operator knows which links
// belong to the LAN, so she maps the LAN to one correlation set.
//
// This example builds such a network, makes the hidden switch congest (which
// congests several logical links at once), and shows that the correlation-
// aware algorithm estimates every link's congestion probability accurately
// while the independence baseline mis-attributes the shared congestion.
//
// Run with:
//
//	go run ./examples/lan-monitor
package main

import (
	"fmt"
	"log"

	tomography "repro"
	"repro/internal/congestion"
	"repro/internal/eval"
)

const (
	ingressRouters = 3 // LAN-facing routers on the monitor side
	monitorsPerIn  = 2 // monitors attached to each ingress router
	egressRouters  = 2 // LAN-facing routers on the server side
	serversPerOut  = 2 // servers attached to each egress router
)

func main() {
	// Topology: monitors attach (two per router) to ingress routers; every
	// ingress router reaches every egress router across the hidden switch
	// (logical links lanIJ — one correlation set); egress routers connect to
	// two servers each.
	//
	//   m --accM--> in_i --lanIJ--> out_j --srvJ--> server_j
	//
	// Two monitors per ingress router and two servers per egress router keep
	// the topology identifiable (Assumption 4): with a single access link
	// per ingress router, the subsets {access_i} and {lan_i1, lan_i2} would
	// cover exactly the same paths, and with a single server per egress
	// router, {srv_j} would collide with the LAN column feeding it.
	b := tomography.NewBuilder()
	lanIn := b.AddNodes(ingressRouters)
	lanOut := b.AddNodes(egressRouters)

	var access []tomography.LinkID // index: monitor
	monRouter := map[int]int{}     // monitor -> ingress router
	for i := 0; i < ingressRouters; i++ {
		for m := 0; m < monitorsPerIn; m++ {
			mon := b.AddNode()
			id := b.AddLink(mon, lanIn[i], fmt.Sprintf("acc%d%c", i+1, 'a'+m))
			monRouter[len(access)] = i
			access = append(access, id)
		}
	}
	lan := make([][]tomography.LinkID, ingressRouters)
	for i := range lan {
		lan[i] = make([]tomography.LinkID, egressRouters)
		for j := 0; j < egressRouters; j++ {
			lan[i][j] = b.AddLink(lanIn[i], lanOut[j], fmt.Sprintf("lan%d%d", i+1, j+1))
		}
	}
	egress := make([][]tomography.LinkID, egressRouters) // [router][server]
	for j := 0; j < egressRouters; j++ {
		for sv := 0; sv < serversPerOut; sv++ {
			server := b.AddNode()
			egress[j] = append(egress[j], b.AddLink(lanOut[j], server, fmt.Sprintf("srv%d%c", j+1, 'a'+sv)))
		}
	}
	for m, acc := range access {
		for j := 0; j < egressRouters; j++ {
			for sv := 0; sv < serversPerOut; sv++ {
				b.AddPath(fmt.Sprintf("P%d%d%c", m+1, j+1, 'a'+sv),
					acc, lan[monRouter[m]][j], egress[j][sv])
			}
		}
	}
	var lanAll []tomography.LinkID
	for i := range lan {
		lanAll = append(lanAll, lan[i]...)
	}
	b.Correlate(lanAll...)
	top, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", top)
	check := tomography.CheckIdentifiability(top, 0)
	fmt.Println("Assumption 4 (identifiability):", check.Identifiable)

	// Ground truth: the hidden switch is congested 25% of the time and then
	// takes down a random subset of the LAN links (participation 0.8 each);
	// one access link congests independently, for contrast.
	group := make([]int, top.NumLinks())
	for k := range group {
		group[k] = top.SetOf(tomography.LinkID(k))
	}
	causeProb := make([]float64, top.NumSets())
	participation := make([]float64, top.NumLinks())
	idio := make([]float64, top.NumLinks())
	causeProb[top.SetOf(lanAll[0])] = 0.25
	for _, l := range lanAll {
		participation[l] = 0.8
		idio[l] = 0.02
	}
	idio[access[0]] = 0.10
	model, err := congestion.NewSharedCause(group, causeProb, participation, idio)
	if err != nil {
		log.Fatal(err)
	}

	rec, err := tomography.Simulate(tomography.SimConfig{
		Topology: top, Model: model, Snapshots: 50000, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	src, err := tomography.NewEmpirical(rec)
	if err != nil {
		log.Fatal(err)
	}

	// One compiled plan serves both estimators.
	plan, err := tomography.Compile(top, tomography.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	corr, err := tomography.Estimate("correlation", plan, src, tomography.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	indep, err := tomography.Estimate("independence", plan, src, tomography.EstimateOptions{
		Algorithm: tomography.Options{UseAllEquations: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	truth := congestion.Marginals(model)
	sys := corr.Linear.System
	fmt.Printf("\ncorrelation algorithm: rank %d/%d (N1=%d singles, N2=%d pairs), solver %s\n",
		sys.Rank, top.NumLinks(), sys.SinglePathEqs, sys.PairEqs, corr.Linear.Solver)
	fmt.Printf("\n%-8s %-8s %-12s %-12s\n", "link", "truth", "correlation", "independence")
	for k := 0; k < top.NumLinks(); k++ {
		fmt.Printf("%-8s %-8.3f %-12.3f %-12.3f\n",
			top.Link(tomography.LinkID(k)).Name, truth[k],
			corr.CongestionProb[k], indep.CongestionProb[k])
	}

	ce := eval.AbsErrors(truth, corr.CongestionProb, nil)
	ie := eval.AbsErrors(truth, indep.CongestionProb, nil)
	fmt.Printf("\nmean absolute error: correlation %.4f, independence %.4f\n",
		eval.Mean(ce), eval.Mean(ie))
}
