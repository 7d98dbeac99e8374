"""The benchmark's workloads: catalog configurations, seeded op parameters
and the calls each op makes into the engine's public API.

Each workload is a single-client closed loop over a fixed list of ops:
every call waits for the previous one, because the engine is embedded and
called synchronously. Op kinds take turns in equal shares. Parameters cover
the ranges ``arraybench.cli._query_params`` draws from, taken from a
low-discrepancy sequence whose offset the seed draws, so that runs with
different seeds see the same spread of sizes.

The seed draws the op parameters and, for ``ingest``, the catalog each op
loads. The desk catalog that ``raw-slab`` and ``catalog-lookup`` query is
always built with ``BenchConfig``'s default seed: it has only 8 small
images in a large domain, and where a seed puts them changes how many
q4-q9 windows meet one, which doubled the bytes q8/q9 read from one seed
to another.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace

import numpy as np

from arraybench import plans
# Bound before the probe wraps plans.result_digest: the output check must
# stay out of the engine's spans.
from arraybench.plans import result_digest
from arraybench.workload import BenchConfig, Workload

# Why each workload exists, and which layers it stresses.
WORKLOADS = {
    # The write path does most of the work: chunk encoding, zone maps, file
    # writes, manifests and the cooking kernel. No queries run, so a
    # read-side change should leave it unchanged.
    "ingest": ("ingest",),
    # Range scans over 5.5 MB dense chunks: storage decode, the stencil and
    # algebra kernels and aggregate merges; the only workload reaching the
    # overlap boundary path, dense valid-origin windows, plans and expr.
    "raw-slab": ("q1", "q2", "q3", "plan_window", "plan_filter"),
    # Point and metadata lookups on small sparse arrays, plus tile fetches
    # that read whole dense chunks to return small tiles: per-call
    # overhead, pruning and read amplification dominate.
    "catalog-lookup": ("q4", "q5", "q6", "q7", "q8", "q9"),
}

# Parameter configurations per op kind. A run measures a prefix of the op
# list; catalog-lookup runs a couple of thousand cheap ops, and its q8/q9 cost
# hinges on rare windows that meet an image, so it needs a longer list.
CONFIGS_PER_KIND = {"ingest": 64, "raw-slab": 64, "catalog-lookup": 256}
N_WORKERS = 2   # simulated workers: the cores of the 2-core tuning machine

_TOY = dict(grid_extent=120, domain_extent=2000, chunk_side=40,
            obs_max_bbox=120, obs_max_poly_edges=100_000)
# Catalog the query workloads read, per scale: desk is 8 images of 1000^2
# in 128 dense chunks (about 704 MB); toy mirrors demos/04.
QUERY_CATALOG = {"desk": {}, "toy": dict(n_images=4, cycle_size=2, **_TOY)}
INGEST_CATALOG = {"desk": dict(n_images=2, cycle_size=2, grid_extent=500),
                  "toy": dict(n_images=2, cycle_size=2, **_TOY)}


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # sorted (name, value) pairs

    @property
    def key(self) -> str:
        return self.kind + json.dumps(dict(self.params), sort_keys=True)


def catalog_config(workload: str, scale: str, seed: int) -> BenchConfig:
    if workload == "ingest":
        return BenchConfig(seed=seed, n_workers=N_WORKERS,
                           **INGEST_CATALOG[scale])
    return BenchConfig(n_workers=N_WORKERS, **QUERY_CATALOG[scale])


def _kronecker(d: int, n: int, shift) -> np.ndarray:
    """n points of the additive-recurrence (R_d) sequence in [0, 1)^d,
    rotated by ``shift``. Every prefix of it is spread evenly over the
    cube, so a run that measures the first N ops of a kind sees the same
    mix of sizes whatever the seed."""
    g = 2.0
    for _ in range(64):
        g = (1 + g) ** (1 / (d + 1))
    alpha = g ** -np.arange(1, d + 1)
    return (shift + np.arange(1, n + 1)[:, None] * alpha) % 1.0


def _pick(u, lo, hi):
    """The integer of [lo, hi] (inclusive) at position u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


# The coordinates each kind draws, in sequence order.
_COORDS = {
    "ingest": ("seed",),
    "q1": ("cycle", "ext", "x", "y"),
    "q2": ("cycle", "ext", "x", "y", "thr"),
    "q3": ("cycle", "ext", "x", "y"),
    "plan_window": ("cycle", "ext", "x", "y"),
    "plan_filter": ("cycle", "ext", "x", "y", "thr"),
    "q4": ("cycle", "w", "x", "y"),
    "q5": ("cycle", "w", "x", "y"),
    "q6": ("cycle", "w", "x", "y", "d4", "d5"),
    "q7": ("cycle", "w", "x", "y"),
    "q8": ("cycle", "w", "x", "y", "d6"),
    "q9": ("cycle", "w", "x", "y", "d6"),
}


def _params(kind: str, cfg: BenchConfig, rng, k: int) -> list:
    g, dom, t = cfg.grid_extent, cfg.domain_extent, cfg.cook_threshold
    names = _COORDS[kind]
    points = _kronecker(len(names), k, rng.random(len(names)))
    out = []
    for i, point in enumerate(points):
        u = dict(zip(names, point))
        if kind == "ingest":
            out.append((("seed", _pick(u["seed"], 0, 2**31 - 1)),))
            continue
        p = {"cycle": _pick(u["cycle"], 0, cfg.n_cycles - 1)}
        if "ext" in u:
            ext = _pick(u["ext"], g // 8, g // 4)
            x = _pick(u["x"], 0, g - ext - 1)
            y = _pick(u["y"], 0, g - ext - 1)
            if kind == "q1":
                p.update(x1=x, y1=y, t1=ext, u1=ext)
            elif kind == "q2":
                p.update(x2=x, y2=y, t2=ext, u2=ext, threshold=_pick(
                    u["thr"], int(0.9 * t), int(1.1 * t)))
            elif kind == "q3":
                p.update(x1=x, y1=y, t3=ext, u3=ext)
            elif kind == "plan_window":
                # Radius and boundary set a window's cost most; cycling
                # through their 10 pairs keeps every prefix balanced.
                p.update(x=x, y=y, ext=ext, radius=1 + i // 2 % 5,
                         boundary=("merge", "overlap")[i % 2])
            else:
                p.update(x=x, y=y, ext=ext,
                         threshold=_pick(u["thr"], t, 3 * t))
        else:
            w = _pick(u["w"], dom // 16, dom // 4)
            gx = _pick(u["x"], dom // 4, 3 * dom // 4 - w - 1)
            gy = _pick(u["y"], dom // 4, 3 * dom // 4 - w - 1)
            if kind == "q4":
                p.update(gx=gx, gy=gy, t2=w, u2=w)
            else:
                p.update(gx=gx, gy=gy, w=w, h=w)
            if kind == "q6":
                p.update(d4=_pick(u["d4"], 20, 60), d5=_pick(u["d5"], 1, 3))
            if kind in ("q8", "q9"):
                p["d6"] = _pick(u["d6"], 5, 15)
        out.append(tuple(sorted(p.items())))
    return out


def make_ops(workload: str, cfg: BenchConfig, seed: int) -> list:
    """The run's op list: configurations of each kind, kinds interleaved."""
    kinds = WORKLOADS[workload]
    k = CONFIGS_PER_KIND[workload]
    by_kind = {kind: _params(kind, cfg, np.random.default_rng((seed, i)), k)
               for i, kind in enumerate(kinds)}
    return [Op(kind, by_kind[kind][j]) for j in range(k) for kind in kinds]


def plan_text(kind: str, cfg: BenchConfig, p: dict) -> str:
    imgs = cfg.cycle_images(p["cycle"])
    x0, y0, ext = p["x"], p["y"], p["ext"]
    leaf = (f"raw = REBOX(array=images, img_id={imgs[0]}:{imgs[-1]}, "
            f"x={x0}:{x0 + ext}, y={y0}:{y0 + ext}")
    if kind == "plan_window":
        r = p["radius"]
        return (leaf + ", columns=v1)\n"
                f"win = APPLY_PLUS(shape=0:0|-{r}:{r}|-{r}:{r}, agg=avg, "
                f"attr=v1, out=m, boundary={p['boundary']}, in=raw)\n"
                "out = REDUCE(agg=max, attr=m, out=peak, in=win)\n")
    return (leaf + ", columns=v1|v2|v3)\n"
            f"hot = FILTER(expr=v1 + v2 >= {p['threshold']}, in=raw)\n"
            "out = REDUCE(by=img_id, agg=avg, attr=v3, out=m, in=hot)\n")


class Runner:
    """Builds a workload's catalog and runs its ops against it."""

    def __init__(self, workload: str, cfg: BenchConfig, data_dir):
        self.workload = workload
        self.cfg = cfg
        self.data_dir = data_dir
        self.wl = None

    def clear(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def setup(self):
        """Build the catalog the workload reads; the directory starts
        empty."""
        self.wl = self._ingest(self.cfg)

    def _ingest(self, cfg):
        wl = Workload(cfg, self.data_dir)
        wl.generate()
        wl.cook()
        wl.group()
        return wl

    def run(self, op: Op):
        p = dict(op.params)
        if op.kind == "ingest":
            return self._ingest(replace(self.cfg, seed=p["seed"]))
        if op.kind.startswith("plan_"):
            plan = plans.parse_plan(plan_text(op.kind, self.cfg, p))
            result, _report = plans.execute_plan(plan, self.wl.catalog,
                                                 n_workers=N_WORKERS)
            return result
        value, _stats = getattr(self.wl, op.kind)(**p)
        return value

    @staticmethod
    def digest(op: Op, value) -> str:
        """The order-independent digest of an op's result."""
        if op.kind == "ingest":
            wl = value
            groups = sorted((cyc, g.group_id, tuple(sorted(g.members)))
                            for cyc, gs in wl.groups.items() for g in gs)
            value = [[wl.observations[i] for i in sorted(wl.observations)],
                     groups]
        return result_digest(value)
