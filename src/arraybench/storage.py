"""On-disk chunk format, regular chunking, zone-map pruning, and the
catalog.

One file per chunk under ``<data_dir>/<array>/<chunk_id>.chk``; each array
also has a text manifest listing its schema and chunk index. A chunk file
(format version 3) starts with its head, whose fields all have fixed
sizes: the header (magic, version, layout, counts), the box, each
attribute's kind and zone, the validity bitmap's length (dense chunks
only), the cell count, and each stored column's head (a width byte, a
frame ``lo`` and the payload's length). The validity bitmap of a dense
chunk and the column payloads follow. An int64 column (a sparse chunk's
coordinates included) is stored exactly as ``value - lo`` in 1, 2, 4 or 8
bytes per cell, the narrowest that holds the span of every stored cell
(``model.frame_encode``); a float64 column is stored raw at width 8.
Files of versions 1 (every cell in 8 bytes) and 2 (the same fields as
version 3, each column's head in front of its payload) are rejected with
``FormatError``.

A read takes the whole head with one call, so its cost does not grow
with the column count: then it reads the bitmap slice of a dense chunk
and each requested column with one call each. A read with a query box
returns chunk ∩ box for both layouts: of a dense chunk only the band of
rows that the box covers is read, and of that band only the cells inside
the box are decoded; a sparse chunk's columns are read whole, because
its cells are found by their coordinates, and the cells inside the box
are kept.
Every read counts its chunk and bytes into the enclosing ``metered()``
measurement, and every write its bytes, so I/O claims are testable.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CatalogError,
    ConfigError,
    DomainError,
    FormatError,
    SchemaError,
)
from .meter import record
from .model import (
    DENSE,
    SPARSE,
    ArraySchema,
    AttributeSpec,
    Box,
    Chunk,
    DimensionSpec,
    FRAME_DTYPES,
    KIND_FLOAT64,
    KIND_INT64,
    box_intersect,
    cells_in_box,
    clip_chunk,
    frame_decode,
    frame_encode,
    row_zones,
)

MAGIC = b"AQLC"
FORMAT_VERSION = 3
# Magic, format version, layout, dimension count and attribute count.
_PREFIX = struct.Struct("<4sHBBH")

_LAYOUT_CODES = {DENSE: 0, SPARSE: 1}
_LAYOUT_NAMES = {v: k for k, v in _LAYOUT_CODES.items()}
_KIND_CODES = {KIND_INT64: 0, KIND_FLOAT64: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def tile_box(box: Box, shape) -> list:
    """Tile a box with regular chunks of the given shape, clipped at the
    upper edges. Tiles are ordered row-major over the tile grid."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != box.ndim:
        raise ConfigError("chunk shape dimensionality mismatch")
    if any(s <= 0 for s in shape):
        raise ConfigError(f"chunk shape {shape} has a zero extent")
    grids = [range(lo, hi + 1, s) for lo, hi, s in zip(box.lo, box.hi, shape)]
    return [Box(lo, tuple(min(l + s - 1, h)
                          for l, s, h in zip(lo, shape, box.hi)))
            for lo in itertools.product(*grids)]


def chunk_array(schema: ArraySchema, data: dict, chunk_shape,
                box: Box | None = None) -> list:
    """Partition array data into regular chunks of ``chunk_shape`` (see
    ``tile_box``): one chunk over the whole box, clipped to each tile.

    Dense arrays: ``data`` holds one row-major column per attribute over
    ``box`` plus a ``"__valid__"`` bitmap. Sparse arrays: ``data`` holds
    one column per dimension and attribute; tiles without cells are
    dropped.
    """
    box = box if box is not None else schema.box
    columns = {a.name: np.asarray(data[a.name], dtype=a.dtype)
               for a in schema.attrs}
    if schema.density == DENSE:
        whole = Chunk(0, box, DENSE, columns, validity=np.asarray(
            data.get("__valid__", np.ones(box.volume, bool)), dtype=bool))
    else:
        whole = Chunk(0, box, SPARSE, columns, dim_columns={
            d.name: np.asarray(data[d.name], dtype=np.int64)
            for d in schema.dims})
    chunks = []
    for tile in tile_box(box, chunk_shape):
        chunk = clip_chunk(schema, whole, tile)
        if chunk.cell_count:
            chunk.chunk_id = len(chunks)
            chunks.append(chunk)
    return chunks


# ---------------------------------------------------------------------------
# Chunk file format
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _file_head(schema: ArraySchema, layout: str):
    """The struct of the head of a ``layout`` chunk file of ``schema``, and
    the (name, kind) of each column the file stores, in file order."""
    stored = [(d.name, KIND_INT64) for d in schema.dims] \
        if layout == SPARSE else []
    stored += [(a.name, a.kind) for a in schema.attrs]
    fmt = _PREFIX.format + "qq" * len(schema.dims)
    fmt += "".join("Bqq" if a.kind == KIND_INT64 else "Bdd"
                   for a in schema.attrs)
    fmt += ("Q" if layout == DENSE else "") + "Q" + "BqQ" * len(stored)
    return struct.Struct(fmt), tuple(stored)


def write_chunk(chunk: Chunk, schema: ArraySchema, locator) -> int:
    """Serialize one chunk to disk; returns the bytes written, which are
    also added to the current meter."""
    head, stored = _file_head(schema, chunk.layout)
    fields = [MAGIC, FORMAT_VERSION, _LAYOUT_CODES[chunk.layout],
              len(schema.dims), len(schema.attrs)]
    for lo, hi in chunk.box.ranges():
        fields += (lo, hi)
    for attr in schema.attrs:
        fields += (_KIND_CODES[attr.kind], *chunk.zone_meta[attr.name])
    payloads = []
    if chunk.layout == DENSE:
        payloads.append(np.packbits(chunk.validity))
        fields.append(payloads[0].nbytes)
    fields.append(chunk.cell_count)
    cols = chunk.columns if chunk.layout == DENSE \
        else {**chunk.dim_columns, **chunk.columns}
    for name, kind in stored:
        lo, payload = frame_encode(cols[name]) if kind == KIND_INT64 \
            else (0, np.ascontiguousarray(cols[name]))
        fields += (payload.itemsize, lo, payload.nbytes)
        payloads.append(payload)
    try:
        with open(locator, "wb") as f:
            nbytes = f.write(head.pack(*fields))
            for payload in payloads:
                nbytes += f.write(payload)
    except OSError as exc:
        raise FormatError(f"cannot write chunk file {locator}: {exc}") from exc
    record(bytes_written=nbytes)
    return nbytes


def read_chunk(locator, schema: ArraySchema, columns=None, chunk_id: int = 0,
               box: Box | None = None) -> Chunk:
    """Read a chunk file, materializing only the requested columns.

    ``columns`` may name attributes and (for dense chunks) dimensions;
    suppressed dimension columns cost zero extra bytes. ``None`` reads
    everything.

    ``box`` is the caller's query box. A dense chunk stores each column in
    row-major order over its box, so the cells of ``box`` intersected with
    the chunk box lie in one contiguous run: the band whose ranges are the
    query's up to and including the first dimension where the query spans
    more than one value, and the chunk's after it. Only that band of each
    wanted column, and the bitmap bytes that hold its validity bits, are
    read from disk; only the band's cells inside ``box`` are decoded. A
    sparse chunk's cells need their coordinates, so its wanted columns are
    read whole and only the cells inside ``box`` are kept. For both
    layouts the returned chunk is chunk box ∩ ``box``, and the zones of
    the columns read are exact: the stored ones when that is the whole
    chunk, otherwise computed over the kept valid cells. A box that
    misses the chunk raises ``DomainError``. ``None`` reads the whole
    chunk.

    A read makes a fixed number of calls on one file descriptor, whatever
    the schema's column count (see the module docstring for the layout):
    one read of the whole head, one of the bitmap slice of a dense chunk,
    and one of each wanted column's band, into its row of an array that
    holds the wanted columns of its stored width and kind. Each such
    array is clipped to the box at once; int64 ones are decoded exactly
    into the rows of one int64 stack, each row with its frame ``lo``, and
    float64 columns come back as stored. A clipped read takes its zones
    with one min and one max over each kind's stack. Each returned
    column is a contiguous row of its stack. A file of another format
    version raises ``FormatError``.

    ``bytes_read`` counts the bytes actually read: the head (header, zones,
    bitmap length, cell count and every column's head), the bitmap slice,
    and each wanted column's band. The read also adds one chunk and those
    bytes to the current meter.
    """
    if columns is not None:
        known = set(schema.dim_names) | set(schema.attr_names)
        for c in columns:
            if c not in known:
                raise SchemaError(f"unknown column {c!r} for array {schema.name}")
    try:
        fd = os.open(locator, os.O_RDONLY)
    except OSError as exc:
        raise FormatError(f"cannot open chunk file {locator}: {exc}") from exc
    try:
        chunk = _read_chunk_body(fd, schema, columns, chunk_id, locator, box)
    except OSError as exc:
        raise FormatError(f"cannot read chunk file {locator}: {exc}") from exc
    finally:
        os.close(fd)
    record(chunks_read=1, bytes_read=chunk.bytes_read)
    return chunk


def _read_rows(fd, members, n, width, start, dtype, locator):
    """Cells [start, start + n) of each column of ``members`` ((name, frame
    lo, offset) of columns stored at ``width``), one read per column, as
    the rows of one array of ``dtype``."""
    rows = np.empty((len(members), n), dtype)
    size, skip = n * width, start * width
    for row, (name, _, offset) in zip(rows, members):
        if os.preadv(fd, [row], offset + skip) != size:
            raise FormatError(
                f"truncated column {name!r} in chunk file {locator}")
    return rows


def _band(chunk_box: Box, inter: Box):
    """For ``inter``, a box within ``chunk_box``: the extents of the band
    of ``chunk_box`` that holds its cells and the row-major offset of the
    band's first cell; and the slices of the band's grid that hold them,
    or None for the whole band."""
    # The band takes ``inter``'s ranges up to and including the first
    # dimension where it spans more than one value, and the chunk's after.
    extents, inner = chunk_box.extents, inter.extents
    k = next((d for d, e in enumerate(inner) if e > 1), len(inner) - 1)
    band = inner[:k + 1] + extents[k + 1:]
    start = 0
    for d, (c, lo, extent) in enumerate(zip(inter.lo, chunk_box.lo, extents)):
        start = start * extent + (c - lo if d <= k else 0)
    clip = None
    if band != inner:
        clip = tuple(slice(None) if d <= k else slice(l - c, h - c + 1)
                     for d, (l, h, c) in enumerate(zip(inter.lo, inter.hi,
                                                       chunk_box.lo)))
    return band, start, clip


def _read_head(fd, schema, locator):
    """The file's layout, its unpacked head, the head's size, the (name,
    kind) of each stored column and the bytes read. The head is read in one
    call when the file's layout is the schema's density."""
    head, stored = _file_head(schema, schema.density)
    buf = bytearray(head.size)
    got = os.preadv(fd, [buf], 0)
    if got < _PREFIX.size:
        raise FormatError(f"truncated chunk file {locator}: short read in "
                          f"header")
    magic, version, layout_code, n_dims, n_attrs = _PREFIX.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError(f"bad magic in chunk file {locator}")
    if version != FORMAT_VERSION:
        raise FormatError(f"chunk file {locator} has format version "
                          f"{version}; only version {FORMAT_VERSION} is read")
    if layout_code not in _LAYOUT_NAMES:
        raise FormatError(f"bad layout flag in {locator}")
    layout = _LAYOUT_NAMES[layout_code]
    if n_dims != len(schema.dims) or n_attrs != len(schema.attrs):
        raise FormatError(
            f"chunk file {locator} dim/attr counts do not match schema "
            f"{schema.name}")
    if layout != schema.density:
        head, stored = _file_head(schema, layout)
        if head.size > len(buf):
            tail = bytearray(head.size - len(buf))
            got += os.preadv(fd, [tail], len(buf))
            buf += tail
    if got < head.size:
        raise FormatError(f"truncated chunk file {locator}: short read in "
                          f"head")
    return layout, head.unpack_from(buf), head.size, stored, got


def _read_chunk_body(fd, schema, columns, chunk_id, locator, query_box):
    layout, fields, head_size, stored, nbytes = _read_head(fd, schema, locator)
    nd = len(schema.dims)
    box = Box(fields[5:5 + 2 * nd:2], fields[6:6 + 2 * nd:2])
    i = 5 + 2 * nd
    zones = {}
    for attr in schema.attrs:
        if _KIND_NAMES.get(fields[i]) != attr.kind:
            raise FormatError(
                f"attribute {attr.name!r} kind mismatch in {locator}")
        zones[attr.name] = fields[i + 1:i + 3]
        i += 3
    blen = 0
    if layout == DENSE:
        blen = fields[i]
        i += 1
        if blen != (box.volume + 7) // 8:
            raise FormatError(
                f"validity bitmap in {locator} has {blen} bytes for "
                f"{box.volume} cells")
    count = fields[i]
    if layout == DENSE and count != box.volume:
        raise FormatError(
            f"chunk file {locator} holds {count} cells for a box of "
            f"{box.volume}")

    wanted = None if columns is None else set(columns)
    if wanted is not None and layout == SPARSE:
        # Sparse cells are meaningless without their coordinates.
        wanted |= set(schema.dim_names)
    # The wanted columns by kind and stored width: [(name, frame lo,
    # offset)].
    stacks = {KIND_INT64: {}, KIND_FLOAT64: {}}
    offset = head_size + blen
    heads = fields[i + 1:]
    for (name, kind), width, lo, plen in zip(stored, heads[::3], heads[1::3],
                                             heads[2::3]):
        if plen != count * width or width not in FRAME_DTYPES or \
                (kind == KIND_FLOAT64 and width != 8):
            raise FormatError(
                f"column {name!r} in {locator} has {plen} bytes at width "
                f"{width}, expected {count} {kind} cells")
        if wanted is None or name in wanted:
            stacks[kind].setdefault(width, []).append((name, lo, offset))
        offset += plen

    inter = box
    if query_box is not None:
        inter = box_intersect(box, query_box)
        if inter is None:
            raise DomainError(f"query box {query_box} misses chunk box {box}")
    clipped = inter != box
    # Cells [start, start + n) of every wanted column are read; of a dense
    # band, only the cells of ``inter`` are kept (``clip``).
    start, n, clip, validity = 0, count, None, None
    if layout == DENSE:
        if clipped:
            extents, start, clip = _band(box, inter)
            n = math.prod(extents)
        first, last = start // 8, (start + n - 1) // 8
        bits = bytearray(last - first + 1)
        if os.preadv(fd, [bits], head_size + first) != len(bits):
            raise FormatError(f"truncated validity bitmap in chunk file "
                              f"{locator}")
        nbytes += len(bits)
        bit0 = start % 8
        validity = np.unpackbits(np.frombuffer(bits, np.uint8),
                                 count=bit0 + n)[bit0:].view(bool)
        if clip is not None:
            validity = validity.reshape(extents)[clip].ravel()
            clip = (slice(None),) + clip

    m = n if validity is None else len(validity)  # cells kept per column
    parts = []  # (kind, names, stack) per kind read
    for kind, by_width in stacks.items():
        members = [c for group in by_width.values() for c in group]
        if not members:
            continue
        k = len(members)
        nbytes += n * sum(w * len(group) for w, group in by_width.items())
        if kind == KIND_FLOAT64:
            stack = _read_rows(fd, members, n, 8, start, np.float64, locator)
            if clip is not None:
                # The clipped rows may be a view; each column is a
                # contiguous row.
                stack = np.ascontiguousarray(
                    stack.reshape((k,) + extents)[clip].reshape(k, -1))
        else:
            # Each width's rows are read and clipped as one, and decoded
            # into their rows of one int64 stack, each with its frame.
            stack = np.empty((k, m), np.int64)
            row = 0
            for width, group in by_width.items():
                j = len(group)
                raw = _read_rows(fd, group, n, width, start,
                                 FRAME_DTYPES[width], locator)
                if clip is not None:
                    raw = raw.reshape((j,) + extents)[clip]
                lo = group[0][1] if j == 1 else np.array(
                    [frame for _, frame, _ in group], np.int64).reshape(
                    (j,) + (1,) * (raw.ndim - 1))
                frame_decode(lo, raw,
                             out=stack[row:row + j].reshape(raw.shape))
                row += j
        parts.append((kind, [name for name, _, _ in members], stack))

    if clipped and layout == SPARSE:
        # Sparse cells are kept by their coordinates, which every read
        # holds.
        rows = {name: row for _, names, stack in parts
                for name, row in zip(names, stack)}
        keep = cells_in_box([rows[d] for d in schema.dim_names], inter)
        # ``compress`` keeps each row contiguous; ``stack[:, keep]`` may not.
        parts = [(kind, names, np.compress(keep, stack, axis=1))
                 for kind, names, stack in parts]
    # A clipped dense chunk's zones cover its valid cells only.
    valid = validity if clipped and layout == DENSE and not validity.all() \
        else None
    cols, meta = {}, {}
    for kind, names, stack in parts:
        cols.update(zip(names, stack))
        if clipped:
            meta.update(zip(names, row_zones(
                stack if valid is None else stack[:, valid], kind)))
        elif layout == SPARSE and kind == KIND_INT64:
            # A sparse chunk's coordinate zones are not stored; the
            # attributes' computed here give way to the stored ones below.
            meta.update(zip(names, row_zones(stack, kind)))

    read = [(name, cols[name]) for name, _ in stored if name in cols]
    dim_columns = None
    if layout == SPARSE:
        dim_columns, read = dict(read[:nd]), read[nd:]
    else:
        meta.update(zip(schema.dim_names, inter.ranges()))
    attr_cols = dict(read)
    if not clipped:
        meta.update((name, zones[name]) for name in attr_cols)
    chunk = Chunk(chunk_id, inter, layout, attr_cols, validity=validity,
                  dim_columns=dim_columns, zone_meta=meta)
    chunk.bytes_read = nbytes
    return chunk


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass
class ChunkRef:
    chunk_id: int
    box: Box
    zone_meta: dict
    locator: str


@dataclass
class CatalogEntry:
    schema: ArraySchema
    chunk_index: list = field(default_factory=list)  # list[ChunkRef]

    def ref(self, chunk_id: int) -> ChunkRef:
        """Chunk ids are positions in the index (see ``add_chunks``)."""
        if 0 <= chunk_id < len(self.chunk_index):
            return self.chunk_index[chunk_id]
        raise CatalogError(f"array {self.schema.name}: no chunk {chunk_id}")


def prune(entry: CatalogEntry, query_box: Box | None = None,
          predicate: dict | None = None) -> list:
    """Chunk ids whose box intersects the query box and whose attribute
    zones overlap every predicate range. Purely metadata-driven."""
    if query_box is not None and query_box.ndim != len(entry.schema.dims):
        raise SchemaError("query box dimensionality does not match schema")
    checks = []
    if query_box is not None:
        checks += zip(entry.schema.dim_names, query_box.lo, query_box.hi)
    if predicate:
        checks += [(name, lo, hi) for name, (lo, hi) in predicate.items()]
    out = []
    for ref in entry.chunk_index:
        zones = ref.zone_meta
        for name, lo, hi in checks:
            zone = zones.get(name)
            if zone is None or zone[0] > hi or zone[1] < lo:
                break
        else:
            out.append(ref.chunk_id)
    return out


def _parse_zone(text: str, kind: str) -> tuple:
    """A manifest zone ``lo:hi``, typed by its column's kind. A zone never
    holds NaN, so a NaN bound raises ``ValueError``."""
    lo, hi = map(int if kind == KIND_INT64 else float, text.split(":"))
    if lo != lo or hi != hi:
        raise ValueError(f"NaN bound in zone {text!r}")
    return lo, hi


class Catalog:
    """Directory-backed array catalog: schemas, chunk files and their zone
    maps. Operators deal the chunks they read to workers by list
    position."""

    def __init__(self, data_dir):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.arrays: dict[str, CatalogEntry] = {}

    # -- registration -----------------------------------------------------

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self.arrays[name]
        except KeyError:
            raise CatalogError(f"unknown array {name!r}") from None

    def create_array(self, schema: ArraySchema) -> CatalogEntry:
        if schema.name in self.arrays:
            raise CatalogError(f"array {schema.name!r} already exists")
        entry = CatalogEntry(schema)
        self.arrays[schema.name] = entry
        (self.data_dir / schema.name).mkdir(parents=True, exist_ok=True)
        return entry

    def drop_array(self, name: str):
        entry = self.arrays.pop(name, None)
        if entry is None:
            return
        for ref in entry.chunk_index:
            try:
                os.unlink(ref.locator)
            except OSError:
                pass
        manifest = self.data_dir / name / "manifest.txt"
        if manifest.exists():
            manifest.unlink()

    def add_chunks(self, name: str, chunks) -> list:
        """Write chunks, assign sequential ids, and extend the chunk index.
        Returns the new ChunkRefs."""
        entry = self.entry(name)
        start = len(entry.chunk_index)
        refs = []
        for cid, chunk in enumerate(chunks, start):
            chunk.chunk_id = cid
            locator = str(self.data_dir / name / f"{cid}.chk")
            write_chunk(chunk, entry.schema, locator)
            refs.append(ChunkRef(cid, chunk.box, dict(chunk.zone_meta),
                                 locator))
        entry.chunk_index.extend(refs)
        return refs

    # -- persistence ------------------------------------------------------

    def save(self):
        for name, entry in self.arrays.items():
            self._write_manifest(name, entry)

    def _write_manifest(self, name, entry):
        lines = [f"array {name} density={entry.schema.density}"]
        for d in entry.schema.dims:
            lines.append(f"dim {d.name} {d.lo} {d.hi}")
        for a in entry.schema.attrs:
            lines.append(f"attr {a.name} {a.kind}")
        order = entry.schema.dim_names + entry.schema.attr_names
        for ref in entry.chunk_index:
            boxs = ",".join(f"{l}:{h}" for l, h in ref.box.ranges())
            zones = ";".join(f"{n}={ref.zone_meta[n][0]}:{ref.zone_meta[n][1]}"
                             for n in order if n in ref.zone_meta)
            lines.append(f"chunk {ref.chunk_id} "
                         f"{os.path.basename(ref.locator)} box={boxs} zones={zones}")
        # Written beside the manifest and renamed over it, so that a write
        # that fails partway leaves the old manifest in place.
        path = self.data_dir / name / "manifest.txt"
        tmp = path.with_name("manifest.txt.tmp")
        try:
            tmp.write_text("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self):
        """Load every array manifest found under the data directory."""
        self.arrays = {}
        for manifest in sorted(self.data_dir.glob("*/manifest.txt")):
            entry = self._read_manifest(manifest)
            self.arrays[entry.schema.name] = entry

    def _read_manifest(self, path: Path):
        """An array's catalog entry; a malformed line raises
        ``FormatError`` naming the file and the line."""
        name = None
        density = DENSE
        dims, attrs, refs = [], [], []
        kinds = {}  # zone name -> kind; dimension zones are int64
        try:
            text = path.read_text()
        except OSError as exc:
            raise FormatError(f"cannot read manifest {path}: {exc}") from exc
        lineno, line = 0, ""
        try:
            for lineno, line in enumerate(text.splitlines(), 1):
                tok = line.split()
                if not tok:
                    continue
                if tok[0] == "array":
                    name = tok[1]
                    density = tok[2].split("=", 1)[1]
                elif tok[0] == "dim":
                    dims.append(DimensionSpec(tok[1], int(tok[2]),
                                              int(tok[3])))
                    kinds[tok[1]] = KIND_INT64
                elif tok[0] == "attr":
                    attrs.append(AttributeSpec(tok[1], tok[2]))
                    kinds[tok[1]] = tok[2]
                elif tok[0] == "chunk":
                    cid, locator = int(tok[1]), str(path.parent / tok[2])
                    if cid != len(refs):
                        raise FormatError(f"{path}: chunk {cid} where chunk "
                                          f"{len(refs)} was expected")
                    fields = dict(t.split("=", 1) for t in tok[3:])
                    ranges = [tuple(int(v) for v in r.split(":"))
                              for r in fields["box"].split(",")]
                    zones = {}
                    for z in fields["zones"].split(";"):
                        if not z:
                            continue
                        zname, zrange = z.split("=", 1)
                        zones[zname] = _parse_zone(zrange, kinds[zname])
                    refs.append(ChunkRef(cid, Box.of(*ranges), zones,
                                         locator))
        except (IndexError, KeyError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed line "
                              f"{line!r}") from exc
        if name is None:
            raise FormatError(f"{path}: no array line")
        schema = ArraySchema(name, tuple(dims), tuple(attrs), density)
        return CatalogEntry(schema, refs)

    # -- access -----------------------------------------------------------

    def read(self, name: str, chunk_id: int, columns=None,
             box: Box | None = None) -> Chunk:
        """One chunk, read through ``read_chunk`` (see there for
        ``columns`` and ``box``)."""
        entry = self.entry(name)
        ref = entry.ref(chunk_id)
        return read_chunk(ref.locator, entry.schema, columns=columns,
                          chunk_id=chunk_id, box=box)

    def prune(self, name: str, query_box=None, predicate=None) -> list:
        return prune(self.entry(name), query_box, predicate)
