package route_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/icm"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
)

// ExampleRunContext routes the nets of a placed netlist under a
// deadline. The pipeline prefix — decompose, ICM conversion, canonical
// form, modular netlist, bridging, clustering, SA placement — produces
// the placement; RunContext then runs the negotiated A* router over it.
// Unless Options.Serial is set, nets whose search regions are disjoint
// are searched concurrently, with results committed in net order, so the
// outcome is identical to a serial run.
// examplePlacement runs the pipeline prefix — decompose, ICM conversion,
// canonical form, modular netlist, bridging, clustering, SA placement —
// shared by the routing examples.
func examplePlacement() *place.Placement {
	c := qc.New("chain", 3)
	c.Append(qc.CNOT(0, 1), qc.CNOT(1, 2))

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	d, err := decompose.Decompose(c)
	must(err)
	ic, err := icm.FromDecomposed(d.Circuit)
	must(err)
	cf, err := canonical.Build(ic)
	must(err)
	nl, err := modular.Build(cf)
	must(err)
	br, err := bridge.Run(nl, true)
	must(err)
	cl, err := cluster.Build(nl, cluster.DefaultOptions())
	must(err)
	po := place.DefaultOptions()
	po.Seed = 7
	po.Iterations = 300
	pl, err := place.Run(cl, br.Nets, po)
	must(err)
	return pl
}

func ExampleRunContext() {
	pl := examplePlacement()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := route.RunContext(ctx, pl, route.DefaultOptions())
	if err != nil {
		panic(err)
	}

	fmt.Println("all nets routed:", len(res.Routes) == len(pl.Nets))
	fmt.Println("degraded:", res.Degraded)
	fmt.Println("legal:", route.Verify(pl, res) == nil)
	// Output:
	// all nets routed: true
	// degraded: false
	// legal: true
}

// ExampleOptions demonstrates the scheduler and kernel knobs: the batched
// first pass (the default; Serial disables it) co-schedules nets whose
// search regions are disjoint under a conflict-graph coloring, and
// Bidirectional picks the meet-in-the-middle A* kernel for
// single-start/single-target nets. Both are exactly equivalent to the
// serial unidirectional configuration in routed cells and diagnostics —
// only the wall-clock differs — so flipping them never changes a result.
func ExampleOptions() {
	pl := examplePlacement()

	fast := route.DefaultOptions() // batched + bidirectional
	slow := fast
	slow.Serial = true
	slow.Bidirectional = false

	a, err := route.Run(pl, fast)
	if err != nil {
		panic(err)
	}
	b, err := route.Run(pl, slow)
	if err != nil {
		panic(err)
	}

	same := len(a.Routes) == len(b.Routes)
	for id, p := range a.Routes {
		q := b.Routes[id]
		same = same && len(p) == len(q)
	}
	fmt.Println("batched+bidi matches serial+uni:", same)
	// Output:
	// batched+bidi matches serial+uni: true
}
