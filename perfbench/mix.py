"""Seeded request mixes for the four workloads.

A workload is a list of blocks.  Every block has the same fixed sequence of
request classes (the shape of the mix); the seed chooses sizes within a
narrow band around each class's centre, couplings, site indices and verify
seeds.  The output format alternates with the position in the block.  A
different seed gives a mix of the same shape, and every block does the
same kind of work, so a run that stops between blocks measures the same
mix whatever the number of blocks it got through.

The classes that set a latency percentile (the slowest requests of the CLI
workloads, and the calls at the median of `library`) draw their inputs from
`tail`, a generator seeded by the workload name alone.  Blocks still differ
from each other, but the same blocks come for every seed, so those
percentiles do not move with the seed; the seed varies the rest of the mix.

A request holds only the program's inputs; `check.expected` derives the
right answer from them when the answer is checked.
"""

from __future__ import annotations

import random
from fractions import Fraction

import check

WORKLOADS = ("cli_dense", "cli_point", "cli_verify", "library")
BLOCKS = 8          # a run that gets through more starts the deck again


def _near(rng: random.Random, centre: int, spread: int, ok=lambda n: True) -> int:
    while True:
        n = centre + rng.randint(-spread, spread)
        if ok(n):
            return n


def _even(n: int) -> bool:
    return n % 2 == 0


def _ring_ok(n: int) -> bool:
    return n % 4 != 0


def _coupling_pair(rng: random.Random) -> tuple[str, str]:
    """Two distinct-magnitude nonzero p/q couplings (alpha, beta)."""
    while True:
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
        if abs(a) != abs(b):
            return str(a), str(b)


def _fmt(i: int) -> str:
    """Output format by position in the block: every block has the same mix."""
    return ("csv", "json")[i % 2]


def _argv(p: dict) -> list[str]:
    cmd = p["cmd"]
    if cmd == "det":
        return ["det", "--topology", p["topology"], "--n", str(p["n"]),
                "--format", p["format"]]
    if cmd == "invertible":
        argv = ["invertible", "--d", str(p["d"]), "--n-plus-one", str(p["n_plus_one"])]
        return argv + (["--witness"] if p["witness"] else [])
    if cmd == "verify":
        return ["verify", "--suite", p["suite"], "--max-n", str(p["max_n"]),
                "--seed", str(p["seed"]), "--format", p["format"]]
    argv = [cmd, "--topology", p["topology"], "--n", str(p["n"])]
    if p["alpha"] != "1" or p["beta"] != "1":
        argv += [f"--alpha={p['alpha']}", f"--beta={p['beta']}"]
    argv += ["--format", p["format"]]
    if cmd == "green":
        argv += ["--method", p["method"]]
        if p["r"] is not None:
            argv += ["--r", str(p["r"]), "--s", str(p["s"])]
        if p["transmission"]:
            argv.append("--transmission")
    return argv


def _chain(cmd: str, topology: str, n: int, *, method: str = "closed",
           couplings: tuple[str, str] = ("1", "1"), rs=None,
           transmission: bool = False) -> dict:
    alpha, beta = couplings
    r, s = rs if rs else (None, None)
    return {"params": {"cmd": cmd, "topology": topology, "n": n, "alpha": alpha,
                       "beta": beta, "format": "csv", "method": method, "r": r,
                       "s": s, "transmission": transmission}}


def _sites(rng: random.Random, n: int) -> tuple[int, int]:
    return rng.randint(1, n), rng.randint(1, n)


# -- cli_dense: full matrices, assembly plus serialization --------------------

def _dense_block(rng: random.Random, tail: random.Random) -> list[dict]:
    odd_open = _near(rng, 201, 10, lambda n: n % 2 == 1)
    ring4k = 4 * _near(rng, 30, 2)
    return [
        _chain("green", "open", _near(rng, 394, 6, _even)),
        _chain("green", "cyclic", _near(rng, 60, 4, _ring_ok)),
        _chain("green", "open", _near(tail, 300, 8, _even), method="usmani"),
        _chain("green", "open", _near(rng, 120, 6, _even),
               couplings=_coupling_pair(rng)),
        _chain("green", "open", _near(tail, 90, 2, _even), method="spectral"),
        _chain("green", "open", _near(rng, 350, 8, _even), method="numeric"),
        _chain("build", "open", _near(rng, 300, 8)),
        _chain("green", "cyclic", _near(tail, 147, 2, _ring_ok)),
        _chain("green", "cyclic", _near(rng, 80, 4, _even),
               couplings=_coupling_pair(rng)),
        _chain("green", "open", odd_open,
               method=rng.choice(("closed", "usmani", "numeric", "spectral"))),
        _chain("green", "open", _near(rng, 80, 4, _even), method="usmani",
               couplings=_coupling_pair(rng)),
        _chain("green", "cyclic", _near(rng, 35, 3, _ring_ok), method="spectral"),
        _chain("green", "open", _near(rng, 150, 6, _even)),
        _chain("build", "cyclic", _near(rng, 200, 8, _even),
               couplings=_coupling_pair(rng)),
        _chain("green", "open", _near(rng, 150, 6, _even), method="numeric"),
        _chain("green", "cyclic", ring4k, method=rng.choice(("closed", "spectral"))),
    ]


# -- cli_point: cheap requests, startup-bound --------------------------------

def _det(rng: random.Random, topology: str) -> dict:
    n = rng.randint(3, 2000)
    return {"params": {"cmd": "det", "topology": topology, "n": n, "format": "csv"}}


_QUICK_PRIMES = (11, 13, 17, 19, 23)


def _invertible(rng: random.Random, witness: bool, hit: bool | None = None) -> dict:
    if not witness:
        d, n = rng.randint(1, 12), rng.randint(2, 10 ** 6)
    elif hit:
        d = rng.randint(2, 7)
        n = rng.choice([m for m in range(4, 40) if not check.lattice_invertible(d, m)])
    else:
        d, n = rng.choice((3, 5, 7)), rng.choice(_QUICK_PRIMES)
    return {"params": {"cmd": "invertible", "d": d, "n_plus_one": n, "witness": witness}}


def _entry(rng: random.Random, topology: str, n: int, method: str = "closed",
           couplings=("1", "1")) -> dict:
    return _chain("green", topology, n, method=method,
                  couplings=couplings, rs=_sites(rng, n),
                  transmission=rng.random() < 0.5)


def _point_block(rng: random.Random, tail: random.Random) -> list[dict]:
    return [
        _det(rng, "open"),
        _entry(rng, "open", 2 * rng.randint(50, 200)),
        _entry(rng, "open", _near(tail, 396, 4, _even), "usmani"),
        _invertible(rng, False),
        _entry(rng, "open", 2 * rng.randint(50, 200), "spectral"),
        _entry(rng, "cyclic", _near(rng, 250, 150, _ring_ok)),
        _det(rng, "cyclic"),
        _entry(rng, "open", _near(tail, 300, 8, _even), "numeric"),
        _invertible(rng, True, hit=False),
        _entry(rng, "open", _near(rng, 201, 100, lambda n: n % 2 == 1),
               rng.choice(("closed", "spectral"))),
        _entry(rng, "open", 2 * rng.randint(50, 200), couplings=_coupling_pair(rng)),
        _entry(rng, "cyclic", _near(rng, 250, 150, _ring_ok), "spectral"),
        _invertible(rng, True, hit=True),
        _entry(rng, "open", _near(rng, 100, 4, _even), "usmani",
               couplings=_coupling_pair(rng)),
        _entry(rng, "cyclic", 4 * rng.randint(10, 100), "closed"),
        _entry(rng, "cyclic", 2 * rng.randint(10, 100), couplings=_coupling_pair(rng)),
        _det(rng, rng.choice(("open", "cyclic"))),
        _entry(rng, "open", _near(rng, 100, 4, _even), "numeric"),
    ]


# -- cli_verify: the exact layer as a checker ---------------------------------

# (suite, centre, spread) of --max-n.  The alternating suite's cost depends
# strongly on its own --seed, so it runs twice per block at a smaller size;
# it sets the tail, so its inputs come from `tail`.
_VERIFY_MAX_N = (("open", 30, 1), ("alternating", 22, 1), ("cyclic", 40, 2),
                 ("lattice", 24, 2), ("alternating", 22, 1), ("numbertheory", 35, 2),
                 ("trig", 45, 2))


def _verify_block(rng: random.Random, tail: random.Random) -> list[dict]:
    out = []
    for suite, centre, spread in _VERIFY_MAX_N:
        gen = tail if suite == "alternating" else rng
        p = {"cmd": "verify", "suite": suite, "max_n": _near(gen, centre, spread),
             "seed": gen.randint(0, 10 ** 6), "format": "csv"}
        out.append({"params": p})
    return out


# -- library: in-process calls with no CLI route -------------------------------

def _lattice_ok(d: int):
    return lambda n: check.lattice_invertible(d, n + 1)


def _call(op: str, params: dict) -> dict:
    return {"op": op, "params": params}


def _lattice_matrix(rng: random.Random, d: int, size: int) -> dict:
    return _call("lattice_green_matrix",
                 {"dim": d, "size": size, "probe_seed": rng.randint(0, 2 ** 31)})


def _lattice_entry(rng: random.Random, d: int, size: int) -> dict:
    r = [rng.randint(1, size) for _ in range(d)]
    s = [rng.randint(1, size) for _ in range(d)]
    return _call("lattice_green_entry", {"dim": d, "size": size, "r": r, "s": s})


def _witness(d: int, n: int) -> dict:
    return _call("find_vanishing_witness", {"dim": d, "n": n})


def _circulant(rng: random.Random, n: int) -> dict:
    """A rational circulant made invertible by a dominant first entry."""
    col = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
    col[0] = sum(abs(c) for c in col[1:]) + Fraction(1, rng.randint(1, 4))
    return _call("circulant_inverse_dft", {"column": [str(c) for c in col]})


def _library_block(rng: random.Random, tail: random.Random) -> list[dict]:
    """Eight quick calls, two circulants at N=28 and eight slow calls.

    The block median therefore falls on the pair of N=28 circulants, which
    are pure-Python exact arithmetic and cost several times less than the
    slow calls and several times more than the quick ones, at any seed.
    The sizes of the calls around it are fixed for the same reason.
    """
    hit_d = rng.randint(3, 7)
    hit_n = rng.choice([m for m in range(9, 40, 2)
                        if not check.lattice_invertible(hit_d, m)])
    return [
        _lattice_matrix(rng, 3, 16),
        _lattice_entry(rng, 3, _near(rng, 44, 2, _lattice_ok(3))),
        _witness(9, 29),
        _circulant(tail, 28),
        _lattice_matrix(rng, 2, rng.randint(8, 64)),
        _lattice_entry(rng, 1, _near(rng, 48, 4, _even)),
        _lattice_matrix(rng, 3, 12),
        _witness(hit_d, hit_n),
        _circulant(rng, 45),
        _lattice_entry(rng, 3, rng.choice((8, 14, 20, 26))),
        _circulant(rng, 38),
        _witness(7, 31),
        _circulant(tail, 28),
        _lattice_matrix(rng, 1, _near(rng, 48, 4, _even)),
        _witness(5, rng.choice((23, 29, 31))),
        _witness(9, 23),
        _lattice_entry(rng, 2, rng.randint(8, 48)),
        _circulant(rng, 58),
    ]


_BLOCK = {"cli_dense": _dense_block, "cli_point": _point_block,
          "cli_verify": _verify_block, "library": _library_block}


def build(workload: str, seed: int, blocks: int = BLOCKS) -> list[list[dict]]:
    """`blocks` blocks of requests for `workload`, fully determined by `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    tail = random.Random(workload)
    out = []
    for b in range(blocks):
        block = _BLOCK[workload](rng, tail)
        for i, req in enumerate(block):
            req["id"] = f"{b}.{i}"
            if workload != "library":
                if "format" in req["params"]:
                    req["params"]["format"] = _fmt(i)
                req["argv"] = _argv(req["params"])
        out.append(block)
    return out


def warmup(workload: str) -> list[dict]:
    """Small requests that load every module the workload touches."""
    rng = random.Random(0)
    if workload == "library":
        return [_lattice_matrix(rng, 3, 4), _lattice_entry(rng, 3, 4),
                _witness(3, 9), _circulant(rng, 4)]
    req = _chain("green", "open", 4)
    req["argv"] = _argv(req["params"])
    return [req]
