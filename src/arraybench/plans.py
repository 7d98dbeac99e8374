"""Plan scripts: a line-based operator-tree language plus its executor.

Grammar, one node per line (blank lines and ``#`` comments ignored)::

    node_id = OP(key=value, ..., in=node_id[,node_id])

Values never contain top-level commas; ranges are written ``lo:hi``
(inclusive) and lists with ``|``. A ``REBOX`` node without ``in=`` is a
leaf that reads a stored array (``array=name``) through zone-map pruning.
Plans are executed exactly as written, in definition order, with no
reordering.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import (
    AggregateFn,
    Array,
    BitPattern,
    NeighborhoodShape,
    Predicate,
    apply_plus,
)
from .errors import PlanError
from .meter import metered
from .model import Box
from .workload import Observation

_OPS = ("REBOX", "FILTER", "FILL", "APPLY", "COMBINE", "INNERDJOIN",
        "REDUCE", "APPLY_PLUS", "SHIFT")

_NODE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"
                      r"([A-Za-z_][A-Za-z0-9_+]*)\s*\((.*)\)\s*$")


@dataclass(frozen=True)
class PlanNode:
    node_id: str
    op: str
    params: tuple          # of (key, value) pairs, in written order
    inputs: tuple          # of node ids
    line: int = field(default=0, compare=False)

    def param(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class PlanScript:
    nodes: tuple
    root: str

    def node(self, node_id):
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise PlanError(f"unknown node {node_id!r}")


def _split_args(text: str, line: int) -> list:
    """Split the argument list on top-level commas; a part without '='
    continues the previous value (so ``in=a,b`` carries two inputs)."""
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    out = []
    for part in parts:
        part = part.strip()
        if not part:
            raise PlanError("empty argument", line)
        if "=" in part:
            key, value = part.split("=", 1)
            out.append((key.strip(), [value.strip()]))
        else:
            if not out:
                raise PlanError(f"argument {part!r} has no key", line)
            out[-1][1].append(part)
    return [(k, v) for k, v in out]


def parse_plan(text: str) -> PlanScript:
    """Parse and validate a plan script."""
    nodes = []
    defined = set()
    referenced = set()
    any_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        any_line = True
        m = _NODE_RE.match(line)
        if m is None:
            raise PlanError(f"cannot parse {raw.strip()!r}", lineno)
        node_id, op, args = m.group(1), m.group(2).upper(), m.group(3)
        if op not in _OPS:
            raise PlanError(f"unknown operator {op!r}", lineno)
        if node_id in defined:
            raise PlanError(f"node {node_id!r} defined twice", lineno)
        params = []
        inputs = []
        for key, values in _split_args(args, lineno):
            if key == "in":
                for ref in values:
                    if ref == node_id:
                        raise PlanError(
                            f"node {node_id!r} references itself (cycle)",
                            lineno)
                    if ref not in defined:
                        raise PlanError(
                            f"node {node_id!r} references undefined node "
                            f"{ref!r}", lineno)
                    inputs.append(ref)
            else:
                if len(values) != 1:
                    raise PlanError(f"parameter {key!r} has a stray comma",
                                    lineno)
                params.append((key, values[0]))
        nodes.append(PlanNode(node_id, op, tuple(params), tuple(inputs),
                              lineno))
        defined.add(node_id)
        referenced.update(inputs)
    if not any_line:
        raise PlanError("empty plan")
    roots = [n.node_id for n in nodes if n.node_id not in referenced]
    if len(roots) != 1:
        raise PlanError(f"plan must have exactly one root, found {roots}")
    return PlanScript(tuple(nodes), roots[0])


def print_plan(plan: PlanScript) -> str:
    """Canonical text form; parse_plan(print_plan(p)) reproduces p."""
    lines = []
    for n in plan.nodes:
        args = [f"{k}={v}" for k, v in n.params]
        if n.inputs:
            args.append("in=" + ",".join(n.inputs))
        lines.append(f"{n.node_id} = {n.op}({', '.join(args)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _parse_range(value: str, node: PlanNode):
    try:
        lo, hi = value.split(":", 1)
        return int(lo), int(hi)
    except ValueError:
        raise PlanError(f"node {node.node_id!r}: bad range {value!r}",
                        node.line) from None


def _parse_number(value: str):
    try:
        return int(value)
    except ValueError:
        return float(value)


def _box_from_params(node: PlanNode, schema, skip=()):
    ranges = []
    named = dict(node.params)
    for dim in schema.dims:
        if dim.name in named:
            ranges.append(_parse_range(named[dim.name], node))
        else:
            ranges.append((dim.lo, dim.hi))
    for key, _ in node.params:
        if key not in skip and key not in schema.dim_names:
            raise PlanError(
                f"node {node.node_id!r}: {key!r} is not a dimension of "
                f"{schema.name}", node.line)
    return Box(tuple(r[0] for r in ranges), tuple(r[1] for r in ranges))


def _attr_ranges(node: PlanNode, schema, skip=()):
    ranges = {}
    for key, value in node.params:
        if key in skip:
            continue
        if not schema.has_attr(key):
            raise PlanError(
                f"node {node.node_id!r}: {key!r} is not an attribute",
                node.line)
        ranges[key] = _parse_range(value, node)
    return ranges


def _agg_from_params(node: PlanNode):
    kind = node.param("agg")
    if kind is None:
        raise PlanError(f"node {node.node_id!r}: missing agg=", node.line)
    return AggregateFn(kind, node.param("attr"), node.param("out"))


def _exec_node(node: PlanNode, env: dict, catalog, n_workers: int):
    ins = [env[i] for i in node.inputs]
    p = node.param
    if node.op == "REBOX":
        if not ins:
            name = p("array")
            if name is None:
                raise PlanError(
                    f"node {node.node_id!r}: leaf REBOX needs array=",
                    node.line)
            schema = catalog.entry(name).schema
            box = _box_from_params(node, schema, skip=("array", "columns",
                                                       "mode"))
            columns = p("columns")
            columns = columns.split("|") if columns else None
            return algebra.rebox_stored(catalog, name, box, columns=columns)
        arr = ins[0]
        box = _box_from_params(node, arr.schema, skip=("mode",))
        return algebra.rebox(arr, box, mode=p("mode", "clip"))
    if node.op == "FILTER":
        arr = ins[0]
        ranges = _attr_ranges(node, arr.schema, skip=("expr",))
        pred = Predicate.of(ranges=ranges, expr=p("expr"))
        return algebra.filter(arr, pred)
    if node.op == "FILL":
        arr = ins[0]
        defaults = {}
        for key, value in node.params:
            defaults[key] = _parse_number(value)
        return algebra.fill(arr, defaults)
    if node.op == "APPLY":
        name = p("name")
        f = p("f")
        if name is None or f is None:
            raise PlanError(f"node {node.node_id!r}: APPLY needs name= and "
                            "f=", node.line)
        return algebra.apply(ins[0], name, f)
    if node.op == "SHIFT":
        offset = [int(v) for v in p("offset", "").split("|") if v != ""]
        return algebra.shift(ins[0], offset)
    if node.op == "COMBINE":
        if len(ins) != 2:
            raise PlanError(f"node {node.node_id!r}: COMBINE needs two "
                            "inputs", node.line)
        return algebra.combine(ins[0], ins[1], p("g"))
    if node.op == "INNERDJOIN":
        if len(ins) != 2:
            raise PlanError(f"node {node.node_id!r}: INNERDJOIN needs two "
                            "inputs", node.line)
        return algebra.inner_djoin(ins[0], ins[1])
    if node.op == "REDUCE":
        by = p("by")
        keep = by.split("|") if by else []
        return algebra.reduce(ins[0], keep, _agg_from_params(node),
                              n_workers=n_workers)
    if node.op == "APPLY_PLUS":
        arr = ins[0]
        shape_spec = p("shape")
        if shape_spec is None:
            raise PlanError(f"node {node.node_id!r}: missing shape=",
                            node.line)
        shape = NeighborhoodShape.of(
            *[_parse_range(r, node) for r in shape_spec.split("|")])
        patterns = p("patterns")
        if patterns is not None:
            origins = dict(zip(arr.schema.dim_names,
                               [BitPattern(b) for b in patterns.split("|")]))
        else:
            origins = p("origins", "valid")
        return apply_plus(arr, shape, origins, _agg_from_params(node),
                          boundary=p("boundary", "merge"),
                          n_workers=n_workers)
    raise PlanError(f"unknown operator {node.op!r}", node.line)


# ---------------------------------------------------------------------------
# Result digests and reports
# ---------------------------------------------------------------------------


def _canon_value(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return "%.10g" % float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _rows_of(result):
    if result is None:
        return
    if isinstance(result, Array):
        attr_names = list(result.schema.attr_names)
        for batch in result.batches():
            coords = [batch.coords[d] for d in result.schema.dim_names]
            cols = [batch.columns[a] for a in attr_names]
            for i in range(len(batch)):
                yield tuple(c[i] for c in coords) + tuple(c[i] for c in cols)
        return
    if isinstance(result, dict):
        for k in sorted(result, key=str):
            sub = result[k]
            if isinstance(sub, (list, tuple, dict, Array)):
                for row in _rows_of(sub):
                    yield (k,) + tuple(row)
            else:
                yield (k, sub)
        return
    if isinstance(result, Observation):
        yield (result.obs_id, result.img_id, result.size,
               _canon_value(result.center[0]), _canon_value(result.center[1]),
               result.bbox.lo, result.bbox.hi, len(result.polygon))
        return
    if isinstance(result, (list, tuple, set)):
        items = sorted(result, key=str) if isinstance(result, set) else result
        for item in items:
            if isinstance(item, (list, tuple, dict, Array, Observation)):
                for row in _rows_of(item):
                    yield row
            else:
                yield (item,)
        return
    yield (result,)


def result_digest(result) -> str:
    """Order-independent 64-bit digest over the result rows."""
    total = 0
    count = 0
    for row in _rows_of(result):
        text = "\x1f".join(_canon_value(v) for v in row)
        h = hashlib.blake2b(text.encode(), digest_size=8).digest()
        total = (total + int.from_bytes(h, "little")) % (1 << 64)
        count += 1
    mix = hashlib.blake2b(f"{count}:{total}".encode(), digest_size=8)
    return mix.hexdigest()


@dataclass
class StageMetrics:
    name: str
    seconds: float = 0.0
    chunks_read: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    merge_bytes: int = 0
    digest: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class RunReport:
    stages: list = field(default_factory=list)

    def stage(self, name) -> StageMetrics:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def table(self) -> str:
        headers = ("stage", "seconds", "chunks", "bytes", "written",
                   "merge_bytes", "digest")
        rows = [headers]
        for s in self.stages:
            rows.append((s.name, f"{s.seconds:.3f}", str(s.chunks_read),
                         str(s.bytes_read), str(s.bytes_written),
                         str(s.merge_bytes), s.digest))
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def metric_lines(self) -> list:
        out = []
        for s in self.stages:
            out.append(f"{s.name}.seconds\t{s.seconds:.6f}")
            out.append(f"{s.name}.chunks_read\t{s.chunks_read}")
            out.append(f"{s.name}.bytes_read\t{s.bytes_read}")
            out.append(f"{s.name}.bytes_written\t{s.bytes_written}")
            out.append(f"{s.name}.merge_bytes\t{s.merge_bytes}")
            if s.digest:
                out.append(f"{s.name}.digest\t{s.digest}")
            for k in sorted(s.extra):
                out.append(f"{s.name}.{k}\t{s.extra[k]}")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for line in self.metric_lines():
                f.write(line + "\n")


def execute_plan(plan: PlanScript, catalog, n_workers: int = 1):
    """Run a plan against a catalog. Returns (result, RunReport) with one
    stage per node plus a 'plan' total carrying the root digest."""
    report = RunReport()
    env = {}
    total_start = time.perf_counter()
    with metered() as total:
        for node in plan.nodes:
            start = time.perf_counter()
            with metered() as m:
                try:
                    env[node.node_id] = _exec_node(node, env, catalog,
                                                   n_workers)
                except PlanError:
                    raise
                except Exception as exc:
                    raise PlanError(f"node {node.node_id!r} failed: {exc}",
                                    node.line) from exc
            report.stages.append(StageMetrics(
                node.node_id, time.perf_counter() - start, **vars(m)))
    result = env[plan.root]
    report.stages.append(StageMetrics(
        "plan", time.perf_counter() - total_start, **vars(total),
        digest=result_digest(result)))
    return result, report
