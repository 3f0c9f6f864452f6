"""Graph container, file formats, pruning, and the seeded nesting generator.

Everything downstream (dominators, decomposition, shortest paths) works on
the immutable :class:`Graph` defined here: a weighted digraph with dense
0-based node ids and one distinguished source node, stored as three CSR
tuples (``offsets``, ``heads``, ``weights``) that every layer reads directly.
The topology (``offsets``, ``heads``) and the weights are separate columns,
filled by a counting sort by tail with one core, ``_place``, which turns
the tails' arc counts into the offsets and puts each arc at its tail's next
free slot. Two front ends count the tails for it, one per input shape:
``_two_pass`` reads a ``list`` or ``tuple`` of ``(u, v, w)`` arcs, and
``_csr`` reads the tail, head and weight columns that the parsers and the
per-arc loop collect.
``gen_nested`` hands its leaves' arcs to ``Graph.from_arcs``.
A graph is made in one of two ways. ``Graph(...)`` checks every field,
whole columns at a time, and names the offending arc or field when a check
fails. ``_built`` checks nothing, and only code that has made every check
itself calls it: the line parser (line by line), the column parser (its
table of node ids and its own weight check), ``prune_unreachable``
(columns derived from a valid graph) and ``Graph.from_arcs`` on a list,
after checking its columns in C.

``Graph.from_arcs`` sorts a list or tuple of ``(u, v, w)`` arcs straight
from the arcs in two passes, one counting each tail's arcs and one placing
them, with no column list. Any other iterable, and any arc those passes
cannot read (a 2-tuple, a tail out of range or not an ``int``, a weight
``float`` rejects), goes to the per-arc loop, the specification, which
builds the same graph or raises the same error naming the arc. A node
count too large to allocate fails before the first arc is read.

Both formats go through one front end, ``_parse``, one line parser,
``_parse_lines``, one column parser, ``_parse_columns``, and one writer,
``_serialize``, and what sets them apart is one table per format,
``_EDGE_LIST`` and ``_DIMACS``: the header's tag and fields, the comment
rule, the arc line's tag and field counts, the id base, which fault of a
line with a bad id and a bad weight is named first, and the wording of
each message. No reader or writer spells out a tag, a header or an id
shift of its own. The front end checks the text's type, reads the header
and converts a text laid out as the serializers write it a column at a
time: the body is cut into slices of about 64K characters, each slice is
checked to hold one fixed number of single-spaced fields per line and
split once, and its tail, head and weight columns are converted whole,
each id column by one ``itemgetter`` call over a dict of the ids'
decimal strings and the weights by ``map(float)``. Any deviation (a
comment or blank line, tabs, CR, doubled spaces, non-ASCII text, a
missing or extra field, a bad token, a wrong arc count, an id out of
range, or a weight ``Graph`` rejects) sends the whole text to the line
parser instead, which is the specification of both formats and the only
code that raises :class:`FormatError` or :class:`NegativeWeightError`,
naming the line.
"""

from __future__ import annotations

import gc
import math
import random
from collections.abc import Iterable, Iterator, Sequence
from functools import wraps
from itertools import accumulate
from operator import index, itemgetter, le
from types import SimpleNamespace


class GraphError(ValueError):
    """Base class for graph construction, ingest and argument failures.

    A ``ValueError``, so a caller that catches bad values catches these too.
    """


class _LineError(GraphError):
    """A graph error naming ``line``, the 1-based offending input line, if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(_LineError):
    """Malformed graph file. ``line`` is the 1-based offending line, if known."""


class NegativeWeightError(_LineError):
    """An arc carries a negative weight."""


class UnreachableNodeError(GraphError):
    """An operation that requires a pruned graph found unreachable nodes."""


class TreeMismatchError(GraphError):
    """An A-C tree was handed to a search over a graph it was not built for."""


class DistanceOverflowError(GraphError):
    """A search found a node whose shortest distance exceeds the largest
    float: every path to ``node`` sums to ``inf``."""

    def __init__(self, message: str, node: int):
        self.node = node
        super().__init__(message)


class _Record:
    """Read-only record over ``__slots__``, built from its fields in order.

    ``_fields`` names the constructor's fields: every slot, unless a class
    names fewer and derives the other slots from them. Records of one class
    are equal, and hash alike, when their fields are; ``pickle`` rebuilds
    them from the fields through the constructor. A record cannot change,
    so ``copy.copy`` returns it. ``copy.deepcopy`` returns it too when it
    hashes (as built, its fields are then tuples, numbers and strings), and
    otherwise, as for a record that holds a ``list`` or a ``dict``, rebuilds
    it from deep copies of its fields. The repr shows the fields named in
    ``_shown``, or all of them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields: {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot change {name!r}: {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        try:
            hash(self)
        except TypeError:
            from copy import deepcopy  # loaded already: deepcopy called this

            return type(self)(*deepcopy(self._values(), memo))
        return self

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._shown or self._fields)
        return f"{type(self).__name__}({shown})"


def _check_arg(value, cls: type, name: str, error: type[GraphError] = GraphError) -> None:
    """Raise ``error`` naming the parameter ``name`` and the type of
    ``value`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


def _gc_paused(func):
    """``func`` with the cyclic garbage collector paused while it runs.

    The build, the searches and the dominator pass allocate one small
    container per node or heap entry (lists, ``(dist, node)`` tuples, plan
    segments), and CPython's collector would rescan the survivors every 700
    of them. None of that data holds a reference cycle, so reference
    counting alone frees it, and the pause changes no result.
    When the collector is on, it is disabled for the call and enabled again
    when the call returns or raises; when the caller has already disabled
    it, the call runs as it is, so a nested call costs one check.
    """

    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class Graph(_Record):
    """Immutable weighted digraph with a distinguished source node.

    The arcs are stored in compressed sparse rows: node ``u``'s arcs are
    ``heads[offsets[u]:offsets[u + 1]]`` with the matching ``weights``, in
    insertion order. All three are tuples, so a graph costs 16 B of tuple
    slots per arc, plus each arc's own float and one offset per node, and
    no per-arc tuple. The columns fix the counts: ``node_count`` is
    ``len(offsets) - 1`` and ``arc_count`` is ``len(heads)``, both
    read-only properties. Parallel arcs and self-loops are kept as given;
    heads are ``int`` node ids and weights finite non-negative ``float``
    values (parsers normalise a missing weight to 1.0), so the search
    engines need no per-arc checks. The repr shows the node count, source
    and arc count only.
    """

    __slots__ = ("source", "offsets", "heads", "weights")
    _shown = ("node_count", "source", "arc_count")

    def __init__(
        self, source: int, offsets: tuple[int, ...],
        heads: tuple[int, ...], weights: tuple[float, ...],
    ) -> None:
        super().__init__(source, offsets, heads, weights)
        for name in ("offsets", "heads", "weights"):
            if type(getattr(self, name)) is not tuple:
                raise GraphError(f"{name} is not a tuple")
        off, heads, weights = self.offsets, self.heads, self.weights
        if len(off) < 2:
            raise GraphError("a graph needs at least one node")
        m = len(heads)
        if len(weights) != m:
            raise GraphError(
                f"heads ({m} entries) and weights ({len(weights)} entries)"
                " differ in length"
            )
        if not (
            set(map(type, off)) <= {int}
            and off[0] == 0
            and off[-1] == m
            and all(map(le, off, off[1:]))
        ):
            raise GraphError(
                f"offsets must be integers rising from 0 to arc_count {m}"
                f" (offsets[{_first_bad_offset(off)}] is not)"
            )
        n, s = len(off) - 1, self.source
        if type(s) is not int or not 0 <= s < n:
            raise GraphError(f"source {s!r} out of range for {n} nodes")
        # whole-column checks in C; when one fails, the arcs are scanned one by
        # one to name the offending arc
        if not (set(map(type, weights)) <= {float} and _columns_ok(n, heads, weights)):
            self._check_arcs()

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def arc_count(self) -> int:
        return len(self.heads)

    def _check_arcs(self) -> None:
        """Raise the error naming the first malformed arc in storage order.

        Returns when every arc is well formed, which happens only when the
        weights are so large that their sum overflows to inf.
        """
        n = self.node_count
        for u, v, w in self.arcs():
            if type(v) is not int or not 0 <= v < n:
                raise GraphError(f"arc {u}->{v!r}: target is not a node id")
            if type(w) is not float:
                raise GraphError(f"arc {u}->{v} has weight {w!r}, not a float")
            if not 0 <= w < math.inf:
                if math.isfinite(w):
                    raise NegativeWeightError(f"arc {u}->{v} has weight {w}")
                raise GraphError(f"arc {u}->{v} has non-finite weight {w}")

    @classmethod
    def from_arcs(cls, node_count: int, source: int, arcs: Iterable[tuple]) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, w)`` tuples, in order.

        Node ids are ``int``; a missing weight is 1.0 and a given one goes
        through ``float``. A malformed arc raises :class:`GraphError` naming it.
        A node count too large to allocate raises :class:`GraphError` before
        the first arc is read.

        A ``list`` or ``tuple`` of ``(u, v, w)`` arcs is read twice, with no
        column list: one pass counts each tail's arcs and one places them.
        Any other iterable, and a list or tuple holding an arc those passes
        cannot read, goes to the per-arc loop, :func:`_from_arcs_loop`: the
        specification, which builds the same graph or raises the same error.
        The two passes' columns are checked whole and in C and the graph
        built unchecked; when a check fails (a bad head, weight or source)
        the arcs go to the per-arc loop too, which names the fault.
        """
        if type(node_count) is not int:
            raise GraphError(f"node_count {node_count!r} is not an integer")
        if node_count < 1:
            raise GraphError("a graph needs at least one node")
        degree = _zeros(node_count)  # fails before the first arc is read
        if type(arcs) is list or type(arcs) is tuple:
            columns = _two_pass(degree, arcs)  # pass 1 counts into the zeros
            source_ok = type(source) is int and 0 <= source < node_count
            if columns and source_ok and _columns_ok(node_count, *columns[1:]):
                return _built(source, *columns)
        return _from_arcs_loop(node_count, source, arcs)

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """Yield every arc as ``(u, v, w)`` in storage order."""
        off, heads, weights = self.offsets, self.heads, self.weights
        for u in range(self.node_count):
            for i in range(off[u], off[u + 1]):
                yield u, heads[i], weights[i]


def _first_bad_offset(off: tuple) -> int:
    """Index of the first entry of ``off`` that breaks the offsets contract."""
    for i, x in enumerate(off):
        if type(x) is not int or (i == 0 and x != 0) or (i and x < off[i - 1]):
            return i
    return len(off) - 1  # every entry rises, so the last one is not m


def _zeros(n: int) -> list[int]:
    """``n`` zeros, the counts of a counting sort, or a :class:`GraphError`
    naming a node count too large to allocate."""
    try:
        return [0] * n
    except (OverflowError, MemoryError):
        raise GraphError(f"node count {n} is too large to allocate") from None


def _from_arcs_loop(node_count: int, source: int, arcs: Iterable[tuple]) -> Graph:
    """:meth:`Graph.from_arcs` one arc at a time, for a ``node_count`` of at
    least 1 that can be allocated: the specification, and the only code that
    names a malformed arc's tail or tuple."""
    try:
        arcs = iter(arcs)
    except TypeError:
        raise GraphError(
            f"arcs must be an iterable of tuples, not {type(arcs).__name__}"
        ) from None
    tails: list[int] = []
    heads: list[int] = []
    weights: list[float] = []
    for arc in arcs:
        try:
            if len(arc) == 2:
                u, v = arc
                w = 1.0
            else:
                u, v, w = arc
                w = float(w)
            if not 0 <= u < node_count:
                raise GraphError(f"arc {arc!r}: tail is not a node id")
            u = index(u)  # a non-integer u fails here
        except GraphError:  # a ValueError, but it names the arc already
            raise
        except (TypeError, ValueError, OverflowError):
            raise GraphError(
                f"arc {arc!r}: expected (u, v) or (u, v, w) with integer"
                " node ids and a numeric weight"
            ) from None
        tails.append(u)
        heads.append(v)
        weights.append(w)
    return Graph(source, *_csr(node_count, tails, heads, weights))


def _two_pass(degree: list[int], arcs: list | tuple) -> tuple | None:
    """The offsets, heads and weights of a list or tuple of ``(u, v, w)``
    arcs on ``len(degree)`` nodes, read twice and without column lists, or
    ``None`` if an arc is not one. ``degree`` holds one zero per node and is
    consumed.

    Pass 1 counts each tail's arcs. An arc that does not unpack into three
    values, and a tail that is not an ``int`` in ``range(n)``, stops it (a
    negative tail by a check, any other by failing to index ``degree``).
    Pass 2 is :func:`_place`, the one core of both counting sorts, and the
    weights then go through ``float`` as a column. Any exception in the
    passes returns ``None``, leaving the per-arc loop to name the arc. The
    heads and the weights' values are left unchecked.
    """
    try:
        for u, _, _ in arcs:
            if u < 0:
                return None
            degree[u] += 1
        offsets, h, wt = _place(degree, arcs)
        h = tuple(h)
        wt = tuple(map(float, wt))
    except Exception:  # the per-arc loop reads what these passes could not
        return None
    return offsets, h, wt


def _csr(n: int, tails: list[int], heads: list, weights: list[float]) -> tuple:
    """The offsets, heads and weights of ``n`` nodes' arc columns in input order.

    The counting sort by tail for columns (:func:`_two_pass` is the one for
    a list of arcs): one pass counts each tail's arcs and :func:`_place`,
    the core both share, places them. Every caller has allocated something
    of ``n`` entries already, checked the tails and put every weight
    through ``float``; the heads and the weights' values are left unchecked.

    The three lists are consumed: each is emptied as soon as it is read
    through, and the placed heads and weights become tuples one column
    after the other, so at no point are both columns held twice.
    """
    degree = [0] * n
    for u in tails:
        degree[u] += 1
    offsets, h, wt = _place(degree, zip(tails, heads, weights))
    tails.clear()
    heads.clear()
    weights.clear()
    h = tuple(h)
    wt = tuple(wt)
    return offsets, h, wt


def _place(degree: list[int], arcs: Iterable[tuple]) -> tuple:
    """The offsets and the head and weight lists of ``arcs``, whose tails'
    arc counts ``degree`` holds: the one core of both counting sorts.

    The offsets are the running sums of the counts, and ``degree`` is
    emptied before the two lists are allocated. Each ``(u, v, w)`` then goes
    to its tail's next free slot, so every tail keeps its arcs in input
    order.
    """
    offsets = tuple(accumulate(degree, initial=0))
    degree.clear()
    free = list(offsets)
    h: list = [None] * offsets[-1]
    wt: list = [None] * offsets[-1]
    for u, v, w in arcs:
        i = free[u]
        free[u] = i + 1
        h[i] = v
        wt[i] = w
    return offsets, h, wt


def _columns_ok(n: int, heads: tuple, weights: tuple[float, ...]) -> bool:
    """Whether, checked whole and in C, every head is an ``int`` in
    ``range(n)`` and the ``float`` weights are not negative and have a
    finite sum (so none is NaN or inf, and finite weights whose sum
    overflows fail too)."""
    return not heads or (
        set(map(type, heads)) <= {int}
        and 0 <= min(heads)
        and max(heads) < n
        and 0 <= min(weights)
        and sum(weights) < math.inf
    )


def _built(
    source: int, offsets: tuple[int, ...], heads: tuple[int, ...],
    weights: tuple[float, ...],
) -> Graph:
    """A graph from fields that are not checked: only code that has made
    every check of :class:`Graph` itself may call this."""
    g = Graph.__new__(Graph)
    _Record.__init__(g, source, offsets, heads, weights)
    return g


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

# What sets one text format apart from the other. The one front end,
# _parse, the one line parser, _parse_lines, the column parser,
# _parse_columns, and the one writer, _serialize, read both through it:
#   prefix       the header's fields before its integers, as written
#   header       how many integers the header holds: n, m, and the source
#                when the format names it there
#   comment      a line is a comment when its first field, cut to
#   comment_cut  comment_cut characters (None: not cut), is comment: "#"
#                starts one in an edge list, "c" is one in DIMACS
#   tag          the first field of every arc line, or "" for none
#   arc_fields   the field counts an arc line may have; with two, the
#                weight is left out and is 1.0
#   base         the file's first node id
#   ids_first    on an arc with a bad id and a bad weight, name the id
#   tags         a tagged format's error for a line whose first field is
#                out of place; any other tag is unknown
# and the wording of each message that a format words its own way.
_EDGE_LIST = SimpleNamespace(
    prefix="", header=3, comment="#", comment_cut=1, tag="", arc_fields=(2, 3),
    base=0, ids_first=False, tags={},
    bad_header="expected header 'n m s'",
    bad_integers="expected integer header 'n m s'",
    missing="missing header line 'n m s'",
    declares="header declares {} arcs, file has {}",
    bad_arc="expected arc 'u v [w]'",
    malformed="malformed arc line",
)
_DIMACS = SimpleNamespace(
    prefix="p sp ", header=2, comment="c", comment_cut=None, tag="a", arc_fields=(4,),
    base=1, ids_first=True,
    tags={"a": "arc descriptor before problem line", "p": "duplicate problem line"},
    bad_header="expected problem line 'p sp <n> <m>'",
    bad_integers="expected problem line 'p sp <n> <m>'",
    missing="missing problem line 'p sp <n> <m>'",
    declares="problem line declares {} arcs, file has {}",
    bad_arc="expected arc 'a u v w'",
    malformed="malformed arc descriptor",
)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First significant line is a header ``n m s``; each following line is an
    arc ``u v [w]`` with 0-based ids and an optional non-negative decimal
    weight (default 1.0). ``#`` starts a comment line. A text laid out as
    :func:`serialize_edge_list` writes it is converted column by column;
    any other text, and every malformed one, goes through the line parser,
    whose errors name the offending line.
    """
    return _parse(text, _EDGE_LIST, None)


def parse_dimacs_sp(text: str, source: int = 1) -> Graph:
    """Parse the DIMACS shortest-path format (``c`` / ``p sp n m`` / ``a u v w``).

    DIMACS ids are 1-based and are shifted to 0-based. The format carries no
    source node, so the caller supplies one in the file's 1-based id space
    (default: node 1). A text laid out as :func:`serialize_dimacs_sp`
    writes it is converted column by column, like :func:`parse_edge_list`.
    """
    return _parse(text, _DIMACS, source)


def _parse(text: str, fmt: SimpleNamespace, source: int | None) -> Graph:
    """The graph that ``text`` holds in the format ``fmt``: by columns when
    the text is laid out as the format's serializer writes it, and by lines
    otherwise. ``source`` is in the file's id space, or ``None`` when the
    header names it."""
    if not isinstance(text, str):
        raise GraphError(f"text must be a str, not {type(text).__name__}")
    header = _header(text, fmt)
    if header is not None:
        n, m, *named = header
        s = (named or [source])[0]
        if type(s) is int and 0 <= s - fmt.base < n:
            g = _parse_columns(text, n, m, s - fmt.base, fmt)
            if g is not None:
                return g
    return _parse_lines(text, fmt, source)


def _parse_lines(text: str, fmt: SimpleNamespace, source: int | None) -> Graph:
    """:func:`_parse` one line at a time: the specification of both formats.

    One loop reads the lines up to the header, and a second loop reads the
    arcs from the same lines, with what the format sets read into locals
    before it starts, so an arc line is never tested for being a header.
    ``ids`` is indexed by the file's own id, so no arc shifts its ids.
    """
    numbered = enumerate(_lines(text), start=1)
    comment, cut, base = fmt.comment, fmt.comment_cut, fmt.base
    lead = fmt.prefix.split()
    for lineno, raw in numbered:
        fields = raw.split()
        if not fields or fields[0][:cut] == comment:
            continue
        if lead and fields[0] != lead[0]:
            raise FormatError(fmt.tags.get(fields[0], f"unknown line tag {fields[0]!r}"), lineno)
        if fields[: len(lead)] != lead or len(fields) != len(lead) + fmt.header:
            raise FormatError(fmt.bad_header, lineno)
        try:
            n, m, *named = map(int, fields[len(lead) :])
        except ValueError:
            raise FormatError(fmt.bad_integers, lineno) from None
        break
    else:
        raise FormatError(fmt.missing)
    if n < 1:
        raise FormatError("node count must be positive", lineno)
    if m < 0:
        raise FormatError("arc count must be non-negative", lineno)
    source = (named or [source])[0]
    if named and not 0 <= source < n:
        raise FormatError(f"source {source} out of range", lineno)
    try:  # one int per node, indexed by the file's id and shared by its arcs
        ids = list(range(-base, n))
    except (OverflowError, MemoryError):
        raise FormatError(f"node count {n} is too large to allocate", lineno) from None
    tag, counts, t = fmt.tag, fmt.arc_fields, len(fmt.tag)  # the tail is field t
    h, wt = t + 1, t + 2  # the head's field and the weight's
    hi, inf = n + base, math.inf
    tails: list[int] = []
    heads: list[int] = []
    weights: list[float] = []
    for lineno, raw in numbered:
        fields = raw.split()
        if not fields or fields[0][:cut] == comment:
            continue
        if t and fields[0] != tag:
            raise FormatError(fmt.tags.get(fields[0], f"unknown line tag {fields[0]!r}"), lineno)
        if len(fields) not in counts:
            raise FormatError(fmt.bad_arc, lineno)
        try:
            u, v = int(fields[t]), int(fields[h])
            w = float(fields[wt]) if len(fields) > wt else 1.0
        except ValueError:
            raise FormatError(fmt.malformed, lineno) from None
        if not (base <= u < hi and base <= v < hi and 0 <= w < inf):
            if not (base <= u < hi and base <= v < hi) and (fmt.ids_first or 0 <= w < inf):
                raise FormatError(f"arc {u}->{v}: node id out of range", lineno)
            if not math.isfinite(w):
                raise FormatError(f"weight {fields[wt]} is not finite", lineno)
            raise NegativeWeightError(f"negative weight {w}", lineno)
        tails.append(ids[u])
        heads.append(ids[v])
        weights.append(w)
    if len(tails) != m:
        raise FormatError(fmt.declares.format(m, len(tails)))
    if not named and (type(source) is not int or not base <= source < hi):
        raise FormatError(f"source {source!r} out of range ({base}..{hi - 1})")
    return _built(source - base, *_csr(n, tails, heads, weights))


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, one slice of :func:`_slices` at a time, so a
    line parser holds the lines of one slice only. A slice ends just after
    a line feed or at the end of the text, so no carriage return is parted
    from the line feed after it and no line is cut in two or lost."""
    for piece in _slices(text, 0):
        yield from piece.splitlines()


def _slices(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` in slices of about ``_CHUNK`` characters: each ends
    just after the last newline within ``_CHUNK`` characters of its start,
    else just after the first newline past them, else at the end of the
    text."""
    end = len(text)
    while start < end:
        cut = (
            text.rfind("\n", start, start + _CHUNK) + 1
            or text.find("\n", start + _CHUNK) + 1
            or end
        )
        yield text[start:cut]
        start = cut


def serialize_edge_list(g: Graph) -> str:
    """Render ``g`` in the edge-list format; round-trips bit-exactly."""
    return _serialize(g, _EDGE_LIST)


def serialize_dimacs_sp(g: Graph) -> str:
    """Render ``g`` in DIMACS ``p sp`` format (source is not part of the format)."""
    return _serialize(g, _DIMACS)


def _serialize(g: Graph, fmt: SimpleNamespace) -> str:
    """``g`` written in the format ``fmt``: the header's prefix and its
    first ``fmt.header`` integers of node count, arc count and source, then
    one arc line per arc in storage order, tagged, with ids from
    ``fmt.base`` and each weight's ``repr``, so the text reads back
    bit-exactly."""
    _check_arg(g, Graph, "g")
    counts = (g.node_count, g.arc_count, g.source)[: fmt.header]
    tag, base = fmt.tag and fmt.tag + " ", fmt.base
    lines = [fmt.prefix + " ".join(map(str, counts))]
    lines += (f"{tag}{u + base} {v + base} {w!r}" for u, v, w in g.arcs())
    return "\n".join(lines) + "\n"


# The column-at-a-time fast path. The body is cut into slices of about
# _CHUNK characters, each ending at a newline, so the tokens of only one
# slice are alive at a time. A slice is accepted when every line holds the
# same number of fields separated by single spaces: deleting every ASCII
# character but whitespace from it must leave exactly that many spaces and
# one newline per line (any other whitespace, and any non-ASCII character,
# is left in and fails the check). Its columns are then strided slices of
# its tokens: the ids are looked up in a dict of the node ids' decimal
# strings, one ``itemgetter`` call per column, and the weights converted
# with ``map(float)``; both reject the empty token that an empty field
# leaves.
_CHUNK = 1 << 16
_SPACES_ONLY = dict.fromkeys(c for c in range(128) if not chr(c).isspace())


def _header(text: str, fmt: SimpleNamespace) -> list[int] | None:
    """The integers of the first line, if it is ``fmt``'s header prefix and
    ``fmt.header`` single-spaced integers, or else ``None``."""
    end = text.find("\n")
    head = text[len(fmt.prefix) : end if end >= 0 else len(text)]
    if not (
        text.startswith(fmt.prefix)
        and head.translate(_SPACES_ONLY) == " " * (fmt.header - 1)
    ):
        return None
    try:
        return list(map(int, head.split(" ")))
    except ValueError:
        return None


def _parse_columns(text: str, n: int, m: int, s: int, fmt: SimpleNamespace) -> Graph | None:
    """The graph of a canonically laid out text, or ``None`` on any mismatch.

    After the first line (the header, already read as ``n``, ``m`` and the
    0-based source ``s``) every line must be an arc line of ``fmt`` with a
    weight, ``u v w`` or ``a u v w``, with ids from ``fmt.base``, and there
    must be exactly ``m`` of them. ``None`` sends the caller to its line
    parser, so this function raises no format error of its own: a bad
    token, an id out of range, a negative or non-finite weight, or finite
    weights whose sum overflows all return ``None``. An id is looked up by
    its token among the ``n`` ids written in decimal, which range-checks and
    converts it at once; any other spelling (``+3``, ``07``, ``1_0``) is
    left to the line parser. The caller has checked the source.
    """
    if not n - 1 <= m <= len(text):
        # the dict of ids is built only for at least n - 1 arcs (fewer leave
        # a node unreachable), so it stays within a multiple of the text's
        # size whatever the header claims
        return None
    base, tag, t = fmt.base, fmt.tag, len(fmt.tag)  # the tail is field t
    h, wt = t + 1, t + 2  # the head's field and the weight's
    width = wt + 1  # the fields of one line
    # each node's id as the serializers write it -> one shared int per node
    ids = {str(v + base): v for v in range(n)}
    layout = " " * (width - 1) + "\n"  # a line with all but whitespace deleted
    tails: list[int] = []
    heads: list[int] = []
    weights: list[float] = []
    for chunk in _slices(text, text.find("\n") + 1 or len(text)):
        if not chunk.endswith("\n"):
            chunk += "\n"
        lines = chunk.count("\n")
        if chunk.translate(_SPACES_ONLY) != layout * lines:
            return None
        # width * lines tokens, an empty one where a field is empty
        tok = chunk[:-1].replace("\n", " ").split(" ")
        if t and tok[0::width].count(tag) != lines:
            return None
        try:
            if lines > 1:  # one C call looks up a whole column
                tails += itemgetter(*tok[t::width])(ids)
                heads += itemgetter(*tok[h::width])(ids)
            else:  # an itemgetter of one key returns the value, not a tuple
                tails.append(ids[tok[t]])
                heads.append(ids[tok[h]])
            weights.extend(map(float, tok[wt::width]))
        except (KeyError, ValueError):
            return None
    # the id table and the last slice's tokens are freed before the counting
    # sort allocates its columns
    ids = tok = chunk = None
    if len(tails) != m or not (
        0 <= min(weights, default=0.0) and sum(weights) < math.inf
    ):
        return None  # a negative, NaN or inf weight, or a sum that overflows
    return _built(s, *_csr(n, tails, heads, weights))


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def prune_unreachable(g: Graph) -> tuple[Graph, Sequence[int | None]]:
    """Drop nodes with no path from the source and re-densify ids.

    Returns ``(pruned, remap)`` where ``remap[old_id]`` is the new id or
    ``None`` for dropped nodes, as a read-only sequence. All arcs among
    retained nodes survive in storage order, so pruning an already-pruned
    graph is the identity, with ``range(node_count)`` as ``remap``.
    """
    _check_arg(g, Graph, "g")
    n = g.node_count
    off, heads, weights = g.offsets, g.heads, g.weights
    reached = [False] * n
    reached[g.source] = True
    stack = [g.source]
    while stack:
        u = stack.pop()
        for v in heads[off[u] : off[u + 1]]:
            if not reached[v]:
                reached[v] = True
                stack.append(v)
    if all(reached):
        return g, range(n)
    remap: list[int | None] = [None] * n
    new_id = 0
    for v in range(n):
        if reached[v]:
            remap[v] = new_id
            new_id += 1
    # retained tails keep their order, so the rows are copied in place; a
    # reachable tail implies a reachable head
    new_offsets = [0]
    new_heads: list[int] = []
    new_weights: list[float] = []
    for u in range(n):
        if reached[u]:
            new_heads.extend(map(remap.__getitem__, heads[off[u] : off[u + 1]]))
            new_weights.extend(weights[off[u] : off[u + 1]])
            new_offsets.append(len(new_heads))
    pruned = _built(
        remap[g.source], tuple(new_offsets), tuple(new_heads), tuple(new_weights)
    )
    return pruned, tuple(remap)


# ---------------------------------------------------------------------------
# Nested graphs of known width (deterministic for a given seed)
# ---------------------------------------------------------------------------

def _rng(seed) -> random.Random:
    """A generator seeded with ``seed``, or a :class:`GraphError` naming a
    seed that ``random.Random`` rejects."""
    try:
        return random.Random(seed)
    except TypeError:
        raise GraphError(
            f"seed {seed!r} is not None, an int, a float, a str, bytes or a bytearray"
        ) from None


def _complete(k: int, rng: random.Random) -> Graph:
    """Complete digraph on ``k`` nodes, weights from ``rng`` in arc order."""
    arcs = [(u, v, rng.random()) for u in range(k) for v in range(k) if u != v]
    return Graph.from_arcs(k, 0, arcs)


def gen_nested(spec, seed: int) -> Graph:
    """Build a graph from a recursive nesting description.

    A spec is either an ``int`` k (complete digraph on k nodes, seeded
    weights), a ready :class:`Graph`, or a triple ``(outer, at, inner)``
    meaning "substitute the graph described by ``inner`` for node ``at`` of
    the graph described by ``outer``". Weights are drawn from one generator
    seeded with ``seed``, leaf by leaf in spec order (outer before inner),
    each leaf's in its arc order, ``u`` then ``v`` ascending.

    A substitution redirects the arcs into ``at`` to the inner source, and
    the arcs out of ``at`` leave from the inner source, ahead of the inner
    source's own arcs. Retained outer nodes keep their relative order, and
    the inner nodes follow them. Substituting a graph for the only node of a
    one-node outer graph gives an equal graph.
    """
    if spec is None or spec == ():
        raise GraphError(f"spec {spec!r} is empty")
    rng = _rng(seed)
    # The nodes of the leaf graphs get consecutive handles, leaves in spec
    # order (outer before inner). A built part is its node sequence (the
    # handles in id order) and its source handle. A substitution drops node
    # ``at`` from the outer sequence, appends the inner one and aliases the
    # dropped handle to the inner source. The final ids are the positions in
    # the last sequence, so the arcs are renumbered once, at the end, and not
    # at every level: the cost is linear in the output plus list copies.
    # Post-order runs on an explicit stack, so nesting depth is not bounded
    # by the interpreter's recursion limit; a triple's outer part is built
    # (and draws its weights) before its inner part.
    leaves: list[tuple[int, Graph]] = []
    aliases: list[tuple[int, int]] = []
    handles = 0
    todo: list[tuple[object, bool]] = [(spec, False)]
    built: list[tuple[list[int], int]] = []
    while todo:
        s, ready = todo.pop()
        if ready:
            inner_seq, inner_src = built.pop()
            seq, src = built[-1]
            at = s[1]
            if type(at) is not int or not 0 <= at < len(seq):
                raise GraphError(
                    f"spec {s!r}: node {at!r} is not one of the outer part's"
                    f" {len(seq)} nodes"
                )
            dropped = seq.pop(at)
            aliases.append((dropped, inner_src))
            seq += inner_seq
            built[-1] = (seq, inner_src if dropped == src else src)
            continue
        if isinstance(s, Graph):
            leaf = s
        elif type(s) is int:
            if s < 1:
                raise GraphError(f"spec part {s!r}: a component needs at least one node")
            leaf = _complete(s, rng)
        elif isinstance(s, tuple) and len(s) == 3:
            todo += ((s, True), (s[2], False), (s[0], False))
            continue
        else:
            raise GraphError(
                f"spec part {s!r} is not an int, a Graph or an (outer, at, inner) triple"
            )
        leaves.append((handles, leaf))
        first = handles
        handles += leaf.node_count
        built.append((list(range(first, handles)), first + leaf.source))

    seq, src = built.pop()
    final = [0] * handles
    for i, h in enumerate(seq):
        final[h] = i
    for dropped, h in reversed(aliases):  # h is kept, or dropped later
        final[dropped] = final[h]
    # concatenating the leaves' arcs in spec order and sorting stably by
    # tail puts each node's arcs in the order repeated nesting gives them
    arcs: list[tuple[int, int, float]] = []
    for base, leaf in leaves:
        ids = final[base : base + leaf.node_count]
        arcs.extend((ids[u], ids[v], w) for u, v, w in leaf.arcs())
    return Graph.from_arcs(len(seq), final[src], arcs)
