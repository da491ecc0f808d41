"""Pinned stdout of ``approx``, ``round`` and ``lp`` for every k.

Each pin is the SHA-256 of ``k=K exit=E`` followed by the command's stdout,
for K = 2..n in order.  ``approx`` and ``round`` are pinned on the fixtures
and on the ladder graphs of ``test_psp_pin``; ``lp`` runs one column
generation per k, so it is pinned on the fixtures only.

The k-cut scan on graphs with a zero-capacity cut has one pin of its own,
over exact and approximate ``solve --all`` and ``enumerate`` for every k.
So do ``psp``, ``strength`` and ``lp --k 3`` on multigraphs with decimal,
``a/b`` and zero capacities, and the exact LP commands (``pack --exact``,
``lp``, ``oracle`` and ``verify``) on the same graphs.
"""

import hashlib
import io
import random

import pytest

from kcut import parse_graph
from kcut.cli import main

from test_psp_pin import GRAPHS, _ladder, _text

CLI_SHA256 = {
    ('E1', 'approx'): '40fd79525cde97454899907a2db2b0f1a296bab028aab0a845688c6fb395b5d7',
    ('E1', 'round'): '338eeb043ff142a3078bd084a9a25517a16b7cf2143b086ff5cd0c13f20730ec',
    ('E1', 'lp'): '45f6b5f4c07d7797384c8a4fcbf73e827b6e52809ab6a2f566b0c912a6ada01b',
    ('C5', 'approx'): 'b063b9d145eb02f515716313a7955eb21b02ae1ae0cea825403196702fdbd066',
    ('C5', 'round'): 'd01f635250e5ede364814f413bfbaeb853ec6fadc0c7e6fce6f8d1b3b5c8c0bb',
    ('C5', 'lp'): '0648c71f7b1e14b20daedde8b7172e14eb4de5f5dbce9522b7af34b9f86a88f6',
    ('TT', 'approx'): '566a5d45ae60a67d1b61fc77316148b31f53202ad926d22d96781933d4850fee',
    ('TT', 'round'): 'a37d7b5ab89440173f04958d0dcb1ca94844756cd811665334276db59c1b55b2',
    ('TT', 'lp'): 'e1e5f9649df6898eaeba82e2873f96f68718f4eea0691f3a664bf51dffb62b7b',
    ('K4', 'approx'): 'dec5acb6505a588f4ab86034667540d7bd4d021d2f6ec958ecd8f824c2d92dcb',
    ('K4', 'round'): 'b9cf65d99c167dd9a7673881bef0f90ea1e13003d2e6e05a953c03c6a450da33',
    ('K4', 'lp'): '80296d29fecbaa1e2c2c3f1dbd95f06d8705cb5bef36c74540946ab50c1f8ace',
    ('P3', 'approx'): '542eaaeb917b1954661ca3ec60d78a9a0255b133f16e24402d4e961595c4bfa0',
    ('P3', 'round'): '3d53f242ce2cb2076c362b904001453633b5637308c47232bc9ae1196ddce388',
    ('P3', 'lp'): '3f9093001e1125b3c9f137517733ae67e2282a7250813da23c4ae13a332a1406',
    ('rand-n18', 'approx'): 'cb9fa1cdc1210bb1e587f9ea263b8b531a607013b9e4845a00f5ffc1d3450b74',
    ('rand-n18', 'round'): '876e8535b4bc91eddbeebb1bc6bd60f3267b758ed25625f0b52d4fa4c9093555',
    ('rand-n20', 'approx'): '72c6ca1681180200fb75ce592646713d21c0d49fccf18cacfbf8a678030f5328',
    ('rand-n20', 'round'): '617c2a9aef67af5f1418780a1ae76d3c2c345b89dcf71d9dd498f2a0ea4b064c',
    ('rand-n22', 'approx'): '31cdffcd25afcbb2aedc6a148230429073345e28282e623cfc1061322ef05413',
    ('rand-n22', 'round'): '7bf9eb53adf0949467ac86f5d28b0c4985e821d58f071f41b554ff9d4007633d',
    ('rand-n24', 'approx'): 'ffb580d2690ab08e752cdd4f4cb0f8bf710a174a06dbc14bed03ff537f2ceae2',
    ('rand-n24', 'round'): '1e1e6a6456a3fb183dcbb056615de6846f930f5bed12fe6b9d1b95fabc69da19',
    ('rand-n40', 'approx'): '01a34676eba667f7d3b9d929fb5cf78af91a0234bdccd2b9b335137770114fbb',
    ('rand-n40', 'round'): 'dc9c1dc430e83bc2aa301df1c4f8c73eb9a76dadf3d03f7b6333e360f7b609da',
    ('K16', 'approx'): '8de7e118bff28603e23d4b79ed5f006155517d8595ac06fc224c59242864ddb8',
    ('K16', 'round'): '88bc6bb82ec99628f9159f26c8618f564176dd8d19f79535eda609c29070507b',
    ('C16', 'approx'): '5f93811f88c3c1105d844360b95936a381df7ddadc86b803fe34e7f10a9b7202',
    ('C16', 'round'): 'bd4e9112fcccf521b67a81feaf5076af746542ba924333edc40fcda7bc802172',
}


def _graph_text(name):
    return GRAPHS[name] if name in GRAPHS else _text(_ladder()[name])


@pytest.mark.parametrize("name, command", list(CLI_SHA256))
def test_cli_output_pinned_for_every_k(name, command, capsys, monkeypatch):
    text = _graph_text(name)
    digest = hashlib.sha256()
    for k in range(2, parse_graph(text).n + 1):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([command, "--k", str(k)])
        digest.update(f"k={k} exit={code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CLI_SHA256[name, command]


def _zero_cut_graphs(count=24, seed=20261019):
    """Seeded multigraphs, n = 3..7, whose vertices fall into up to three
    clusters.  Edges inside a cluster have capacity 0 to 3 or 3/2, a few of
    them 0; edges between clusters, when there are any, have capacity 0.
    Every other graph leaves vertex n isolated.  So each graph has a cut of
    capacity 0, and most have several components or one of strength 0."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, 7)
        live = n - 1 if i % 2 else n
        clusters = rng.randint(2, 3)
        cluster = [rng.randrange(clusters) for _ in range(live)]
        lines = []
        for _ in range(rng.randint(live, 2 * live)):
            u, v = rng.sample(range(live), 2)
            if cluster[u] == cluster[v]:
                cap = rng.choice(["0", "1", "1", "2", "3", "3/2"])
            else:
                cap = "0"
            lines.append(f"e {u + 1} {v + 1} {cap}\n")
        yield f"p kcut {n} {len(lines)}\n" + "".join(lines)


ZERO_CUT_SHA256 = "2d4f3e4b243db2740e4448c82c8d35219b661d77d260858957ae30646f928bf4"


def test_kcut_output_pinned_on_zero_capacity_cuts(capsys, monkeypatch):
    """Each run adds its argv, exit code, stdout and stderr to one digest."""
    digest = hashlib.sha256()
    for text in _zero_cut_graphs():
        for k in range(2, parse_graph(text).n + 1):
            for argv in (
                ["solve", "--k", str(k), "--all"],
                ["solve", "--k", str(k), "--eps", f"1/{2 * k}", "--all"],
                ["enumerate", "--k", str(k), "--alpha", "3/2"],
            ):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code = main(argv)
                out, err = capsys.readouterr()
                digest.update(f"{' '.join(argv)} exit={code}\n{out}{err}".encode())
    assert digest.hexdigest() == ZERO_CUT_SHA256


def _rational_graphs(count=30, seed=2707):
    """Seeded multigraphs, n = 2..12: a random spanning tree on each of one
    to three groups of vertices plus up to 2n more edges inside the groups.
    Every third graph leaves vertex n isolated.  Capacities mix integers,
    decimals and ``a/b`` with denominators from 2 to 999983, and some are 0;
    one pair in four gets two parallel edges."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 12)
        live = n - 1 if i % 3 == 2 and n > 2 else n
        groups = min(rng.choice([1, 1, 2, 3]), live)
        group = [v % groups for v in range(live)]
        pairs = []
        for v in range(groups, live):
            pairs.append((rng.randrange(group[v], v, groups), v))
        for _ in range(rng.randint(0, 2 * live)):
            u, v = rng.sample(range(live), 2)
            if group[u] == group[v]:
                pairs.append((u, v))
        lines = []
        for u, v in pairs:
            for _ in range(2 if rng.random() < 0.25 else 1):
                kind = rng.randrange(5)
                if kind == 0:
                    cap = "0"
                elif kind == 1:
                    cap = str(rng.randint(1, 9))
                elif kind == 2:
                    cap = f"{rng.randint(0, 9)}.{rng.randint(1, 999):03d}"
                else:
                    den = rng.choice([2, 3, 7, 12, 60, 1001, 999983])
                    cap = f"{rng.randint(1, 3 * den)}/{den}"
                lines.append(f"e {u + 1} {v + 1} {cap}\n")
        yield f"p kcut {n} {len(lines)}\n" + "".join(lines)


RATIONAL_SHA256 = "cf90e9241a6aea04d0d3bc262852291c3a45e9ad71fc8a3ad8b780d8ba534228"


def test_psp_strength_lp_pinned_on_rational_capacities(capsys, monkeypatch):
    """``psp``, ``strength`` and ``lp --k 3`` on rational multigraphs; each
    run adds its argv, exit code, stdout and stderr to one digest."""
    digest = hashlib.sha256()
    for text in _rational_graphs():
        for argv in (["psp"], ["strength"], ["lp", "--k", "3"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(f"{' '.join(argv)} exit={code}\n{out}{err}".encode())
    assert digest.hexdigest() == RATIONAL_SHA256


LP_RATIONAL_SHA256 = "73e2a3073e8ac77c95f5c8a52fd422094ccdb374580142b11f440d09a9792411"


def test_lp_outputs_pinned_on_rational_capacities(capsys, monkeypatch):
    """The exact simplex behind ``pack --exact``, ``lp --k 2`` and ``oracle
    treepack`` on every rational multigraph, and behind ``oracle lp --k 3``
    and ``verify --kmax 3`` on those with n <= 7; each run adds its argv,
    exit code, stdout and stderr to one digest."""
    digest = hashlib.sha256()
    for text in _rational_graphs():
        runs = [["pack", "--exact"], ["lp", "--k", "2"], ["oracle", "treepack"]]
        if parse_graph(text).n <= 7:
            runs += [["oracle", "lp", "--k", "3"], ["verify", "--kmax", "3"]]
        for argv in runs:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(f"{' '.join(argv)} exit={code}\n{out}{err}".encode())
    assert digest.hexdigest() == LP_RATIONAL_SHA256
