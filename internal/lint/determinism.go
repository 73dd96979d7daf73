package lint

import (
	"go/ast"
	"go/types"
)

// simPackages are the module-relative packages whose results must be
// bit-for-bit reproducible from a seed: the two simulators, the testbed,
// the optimization stack they drive, the fault-injection plane (chaos
// runs must replay exactly from a profile seed), the benchmark
// harness (whose statistics and compare verdicts must replay from
// recorded samples; only its registered sampler edge may read time),
// the trace-replay engine (same-seed replays must be byte-identical;
// only its registered pacer edge may read time), and the observers the
// probe feeds (same-seed scorecards and checker verdicts must be
// byte-identical).
var simPackages = []string{
	"internal/dcsim",
	"internal/appsim",
	"internal/testbed",
	"internal/optimizer",
	"internal/packing",
	"internal/queueing",
	"internal/fault",
	"internal/bench",
	"internal/trace",
	"internal/obs",
	"internal/check",
	"internal/probe",
}

// bannedTimeFuncs read the wall clock, which differs between runs.
var bannedTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// allowedRandFuncs are the math/rand constructors that build an explicit
// seeded source; every other package-level rand function draws from the
// unseeded global source and is banned.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// DeterminismAnalyzer enforces seed-reproducibility in simulation
// packages: no wall-clock reads (time.Now/Since/Until) and no global
// math/rand — all randomness must flow through a seeded *rand.Rand.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc: "forbid time.Now/Since/Until and global math/rand in simulation packages " +
			"(dcsim, appsim, testbed, optimizer, packing, queueing, fault, bench, trace, obs, " +
			"check, probe); randomness must flow through a seeded *rand.Rand so runs reproduce " +
			"bit-for-bit from a seed; clock reads are allowed only in a package's registered " +
			"wall-clock edge file (bench: sampler.go, trace: pace.go)",
		Applies: func(pkgPath string) bool { return pathHasSuffix(pkgPath, simPackages) },
		Run:     runDeterminism,
	}
}

func runDeterminism(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods like (*rand.Rand).Float64 are the approved path
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[fn.Name()] && !atWallClockEdge(p, sel.Pos()) {
					p.Reportf(sel.Pos(), "time.%s reads the wall clock; simulation results must depend only on the seed", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					p.Reportf(sel.Pos(), "rand.%s draws from the global source; use a seeded *rand.Rand instead", fn.Name())
				}
			}
			return true
		})
	}
}
