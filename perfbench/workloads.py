"""The benchmark's workloads: fixed job lists of graph x command.

Each job runs on ``copies`` presentations of its base graph: copy 0 is the
base graph, and the seed relabels the others, so that a pass averages over
several vertex orders and edge orders.  kcut's work on a graph depends on
both (the attack sweep inserts vertices in label order, and packings break
ties by edge id); a job whose time moves by much with them runs on its base
graph only, so that the workload's time does not depend on the seed.  Sizes were chosen so that every job
takes well under the per-job cap and a pass takes a few seconds on a
2-vCPU machine.  ``solve`` always runs with ``--all`` so that the answer
carries the full minimizer set, which is what the check compares.
"""

from __future__ import annotations

from graphs import complete, cycle, fixture_tt, planted, random_connected
from harness import Job

C5 = cycle(5)
K4 = complete(4)
TT = fixture_tt()

WORKLOADS = {
    # Attack oracle: max-flow and the Dilworth sweep, no simplex, no tree scan.
    # The time of the random and planted jobs moves by up to 2x with the
    # relabelling, so they run on several base graphs instead of on copies.
    "attack-psp": [
        Job("psp", ("psp",), random_connected(20, 40), copies=1),
        Job("psp", ("psp",), random_connected(18, 36), copies=1),
        Job("strength", ("strength",), random_connected(24, 48), copies=1),
        Job("strength", ("strength",), random_connected(22, 44), copies=1),
        Job("psp", ("psp",), planted(4, 6), copies=1),
        Job("psp", ("psp",), planted(3, 7), copies=1),
        Job("psp", ("psp",), complete(16), copies=2),
        Job("psp", ("psp",), cycle(16), copies=2),
    ],
    # Column generation: many small exact re-solves of the restricted master.
    # K_n is strength-tight, so every pivot is degenerate and the attack
    # oracle has little to do; the simplex takes over four fifths of a pass.
    "colgen-lp": [
        Job("pack_exact", ("pack", "--exact"), complete(6), copies=1),
        Job("pack_exact", ("pack", "--exact"), complete(5), copies=4),
        Job("pack_exact", ("pack", "--exact"), cycle(12), copies=3),
        Job("pack_exact", ("pack", "--exact"), random_connected(16, 16), copies=1),
        Job("lp", ("lp", "--k", "3"), complete(6), copies=1),
        Job("lp", ("lp", "--k", "3"), complete(5), copies=4),
        Job("lp", ("lp", "--k", "4"), planted(4, 4), copies=3),
        Job("solve_exact", ("solve", "--k", "3", "--all"), complete(6), copies=1),
    ],
    # Support-tree scans: 2-respecting mincut pairs and k-cut candidates.
    "tree-scan": [
        Job("mincut", ("mincut",), random_connected(8, 16), copies=3),
        Job("solve_approx", ("solve", "--k", "3", "--eps", "1/6", "--all"), random_connected(6, 7), copies=1),
        Job("solve_exact", ("solve", "--k", "4", "--all"), random_connected(7, 9), copies=1),
        Job("solve_exact", ("solve", "--k", "3", "--all"), planted(3, 4), copies=3),
        Job("enumerate", ("enumerate", "--k", "3", "--alpha", "3/2"), random_connected(6, 6), copies=1),
    ],
    # Brute-force oracle: one-shot LPs over every spanning forest, and verify.
    "verify-oracle": [
        Job("verify", ("verify",), TT, copies=2),
        Job("verify", ("verify",), C5, copies=1),
        Job("verify", ("verify",), K4, copies=2),
        Job("verify", ("verify",), planted(2, 3), copies=1),
        Job("verify", ("verify",), random_connected(5, 5), copies=1),
        Job("verify", ("verify", "--kmax", "3"), random_connected(6, 6), copies=1),
    ],
}

# One tiny job per command, for the self-test.
SMOKE = [
    Job("psp", ("psp",), C5),
    Job("strength", ("strength",), TT),
    Job("pack_exact", ("pack", "--exact"), K4),
    Job("lp", ("lp", "--k", "3"), TT),
    Job("solve_exact", ("solve", "--k", "3", "--all"), TT),
    Job("solve_approx", ("solve", "--k", "3", "--eps", "1/6", "--all"), C5),
    Job("enumerate", ("enumerate", "--k", "3", "--alpha", "3/2"), C5),
    Job("mincut", ("mincut",), TT),
    Job("verify", ("verify",), C5),
]
