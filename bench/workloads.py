"""The benchmark's workloads: synthetic inputs plus the `mom pipeline` flags.

Every workload keeps the CLI defaults for everything not listed here
(graph.k 30, mining 50/100/50, a linear model with 16 outputs, 30 epochs).
The sizes are chosen so that one pipeline run takes a few seconds on a
2-core machine; the reasons and layer shares are in README.md and
BENCHMARK.json.
"""

from dataclasses import dataclass, replace

AMBIENT_DIM = 64

# Each invocation generates this many inputs from seeds derived from the
# workload seed, and its runs take them in turn, one pipeline per run. Power
# iteration stops at its 10000-iteration cap on about half of these moons
# graphs instead of converging in about 1000, so the time of a single input
# depends on the seed in two modes; averaging over two inputs narrows that
# spread without hiding the cost.
INPUTS = 2


def input_seeds(seed: int) -> list:
    """Seeds of an invocation's inputs: distinct for distinct workload seeds."""
    return [INPUTS * seed + j for j in range(INPUTS)]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # a momine synthetic kind
    per_class: int
    classes: int
    noise: float
    labelled: bool  # without labels the pipeline skips evaluation
    anchors_all: bool  # anchors.mode all, anchors.count = n
    rounds: int

    @property
    def n(self) -> int:
        return self.per_class * self.classes

    def pipeline_argv(self, inputs, out, seed) -> list:
        """Arguments for `momine.cli.main`, reading the generated input files."""
        argv = ["pipeline", "--out", str(out), "--features", str(inputs / "features.bin"),
                "--seed", str(seed), "--rounds", str(self.rounds)]
        if self.labelled:
            argv += ["--labels", str(inputs / "labels.txt")]
        if self.anchors_all:
            argv += ["--set", "anchors.mode", "all", "--set", "anchors.count", str(self.n)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # default protocol with labels: evaluation takes most of the run
        Workload("moons-maxima", "moons", 1250, 2, 0.15, True, False, 1),
        # every node an anchor, re-mined on the embedding: diffusion,
        # mining and training take most of the run. Moons rather than
        # clusters: the random cluster centres change the graph so much from
        # seed to seed (isolated nodes, CG iterations) that run time does too.
        Workload("moons-all-2r", "moons", 400, 2, 0.15, True, True, 2),
        # n = 10^4 without labels, so no evaluation: kNN takes most of the run
        Workload("moons-unlabeled", "moons", 5000, 2, 0.15, False, False, 1),
    )
}

SMOKE_PER_CLASS = {"moons-maxima": 100, "moons-all-2r": 120, "moons-unlabeled": 150}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if smoke:
        return replace(workload, per_class=SMOKE_PER_CLASS[name])
    return workload
