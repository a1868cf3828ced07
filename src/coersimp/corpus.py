"""Corpus files: parenthesized items carrying a signature, a parameter
context, and optionally a declared type and a term.

    (item NAME
      (signature (op NAME TYPE TYPE) ...)
      (context DECL ...)
      (poltype TYPE)
      (term TERM))

    DECL  := (skel s) | (dirt d) | (typaram a SKEL)
           | (tyco w TYPE TYPE) | (dco p DIRT DIRT)
    SKEL  := (param s) | (unit) | (base NAME) | (arrow SKEL SKEL)
    TYPE  := (param a) | (unit) | (base NAME) | (arrow TYPE CTYPE)
    CTYPE := (comp TYPE DIRT)
    DIRT  := (dirt (OP ...)) | (dirt (OP ...) TAIL)

Value and computation terms, with their inline coercions:

    VAL   := (var x) | (unitval) | (lam x TYPE COMP) | (castv VAL VCO)
    COMP  := (return VAL) | (opcall OP VAL x TYPE COMP) | (do x COMP COMP)
           | (app VAL VAL) | (letval x VAL COMP) | (castc COMP CCO)
    VCO   := (covar w) | (corefl TYPE) | (coarrow VCO CCO) | (coseq VCO VCO)
    CCO   := (cco VCO DCO)
    DCO   := (dvar p) | (drefl DIRT) | (dempty DIRT)

`;` starts a line comment. Every item is checked at load time: the context
must be well formed, the declared type well formed over it, and a term must
typecheck to exactly the declared type.

Loading costs time linear in the text and memory bounded by its largest
item. The reader tokenizes the text a block of lines at a time, splitting
each block with string methods rather than matching each token, and builds
plain lists of `str` atoms, keeping no position; each item is elaborated
and judged as soon as its closing parenthesis is read, and its lists are
dropped before the next item is read. A diagnostic reads the text once
more to find the offset of the element it names and only then computes its
line and column, so every `ParseError` carries the exact `line:col` of the
token it is about.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources

from .check import (
    CheckError,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    type_of_value,
    wf_context,
    wf_signature,
    wf_vtype,
)
from .syntax import (
    ATOM_FIELDS,
    App,
    CastC,
    CastV,
    CCoercion,
    CompType,
    DCoParam,
    Dirt,
    Do,
    Lam,
    LetVal,
    NO_OPS,
    OpCall,
    OpSig,
    ParamContext,
    Return,
    Signature,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    UnitVal,
    ValueTerm,
    ValueType,
    Var,
    VCoArrow,
    VCoCompose,
    VCoParam,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class JudgmentError(Exception):
    def __init__(self, item: str, diagnostic: str):
        super().__init__(f"item {item!r}: {diagnostic}")
        self.item = item


@dataclass(frozen=True)
class CorpusItem:
    name: str
    signature: Signature
    context: ParamContext
    poltype: ValueType | None
    term: ValueTerm | None  # a top-level value, typed in the empty context


# ---------------------------------------------------------------------------
# Reader
#
# The reader streams. It splits the text into tokens a block of whole lines
# at a time, which is sound because no token spans a line: an atom runs up
# to the next space, tab, carriage return, newline, parenthesis or `;`, and
# `;` starts a comment that runs to the end of the line. `_tokens` splits a
# block with string methods: it drops the comments, turns each of those
# blanks into a space and pads each parenthesis with spaces, then splits at
# single spaces. It does not use `str.split()`, which also splits at form
# feed, vertical tab and the Unicode spaces, all atom characters here. The
# reader hands each top-level element on as soon as its closing parenthesis
# is read, so a parse holds the items elaborated so far and the lists of
# one element. The lists keep no positions: atoms are `str`, one object per
# distinct atom in a parse, and lists are `list`. A diagnostic reads the
# text again with `_TOKEN`, which matches the same tokens and comments, to
# find its offset, and only then turns it into line:column.

_TOKEN = re.compile(r"[^ \t\r\n();]+|[()]|;[^\n]*")
_COMMENT = re.compile(r";[^\n]*")

# Characters tokenized at a time, extended to the end of their last line.
_BLOCK = 1 << 12

# Deepest parenthesis nesting the reader accepts: elaboration, checking and
# substitution recurse along it and must stay inside the recursion limit.
# Application takes two frames a level (`apply` and `rebuild`), as do `==`
# and printing: `coersimp simplify --emit json` on the deepest items of
# `tests/test_erase.py` needs a recursion limit of 511 to 514, which that
# test holds to two frames a level above its own. Printing must stay at two:
# at three, as with f-strings, an item whose type nests arrows on the result
# side needs 764.
MAX_NESTING = 256


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start


def utf8_text(text: str) -> str:
    """`text`, read from UTF-8 with `surrogateescape`, if every byte of it
    decoded; else the diagnostic at the first byte that did not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # at a surrogate that stands for the byte
        byte = ord(text[exc.start]) - 0xDC00
        raise ParseError(*_line_col(text, exc.start), f"byte {byte:#x} is not utf-8") from None
    return text


def _tokens(block: str) -> Iterator[str]:
    """The parentheses and atoms of `block`, in order; comments are dropped."""
    if ";" in block:
        block = _COMMENT.sub("", block)
    return filter(None, block.replace("\n", " ").replace("\t", " ").replace("\r", " ")
                  .replace("(", " ( ").replace(")", " ) ").split(" "))


def _read(text: str) -> Iterator[str | list]:
    """The top-level elements of `text` in order: a list as soon as its
    closing parenthesis is read, an atom along with the next list."""
    atoms: dict[str, str] = {}
    top: list = []
    node, stack = top, []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for tok in _tokens(text[start:end]):
            if tok == "(":
                if len(stack) == MAX_NESTING:
                    raise _parenthesis_error(text)
                stack.append(node)
                sub: list = []
                node.append(sub)
                node = sub
            elif tok == ")":
                if not stack:
                    raise _parenthesis_error(text)
                node = stack.pop()
                if node is top:
                    yield from top
                    top.clear()
            else:
                node.append(atoms.setdefault(tok, tok))
        start = end
    if stack:
        # The end of the text; a comment on the last line does not count.
        end = text.find(";", text.rfind("\n") + 1)
        raise ParseError(*_line_col(text, len(text) if end < 0 else end),
                         "unclosed parenthesis")
    yield from top


def _parenthesis_error(text: str) -> ParseError:
    """The diagnostic at the first parenthesis `_read` refuses."""
    depth = 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            if depth == MAX_NESTING:
                return ParseError(*_line_col(text, m.start()),
                                  f"nesting deeper than {MAX_NESTING} levels")
            depth += 1
        elif tok == ")":
            if depth == 0:
                return ParseError(*_line_col(text, m.start()), "unmatched close parenthesis")
            depth -= 1
    raise AssertionError("no refused parenthesis")


def _offset(text: str, path: list[int]) -> int:
    """The offset of the element that `path` indexes, from the top level
    down."""
    seen = [-1]  # per open list, the index of its last element so far
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == ")":
            seen.pop()
        elif tok[0] != ";":
            seen[-1] += 1
            if seen == path:
                return m.start()
            if tok == "(":
                seen.append(-1)
    raise AssertionError("no element at the path")


def _path(root: str | list, target: list) -> list[int]:
    """The indices from `root` down to the list `target`."""
    parent = {}  # id of a list -> (the list holding it, its index there)
    todo = [root]
    for node in todo:
        for i, child in enumerate(node):
            if type(child) is list:
                parent[id(child)] = node, i
                todo.append(child)
    path = []
    while target is not root:
        target, i = parent[id(target)]
        path.append(i)
    return path[::-1]


class _Misplaced(Exception):
    """An elaboration error at element `index` of the list `node`, or at
    `node` itself when `index` is None; only a top-level `node` is an atom.
    `parse_corpus` turns it into a `ParseError` at that element."""

    def __init__(self, node: str | list, index: int | None, msg: str):
        super().__init__(msg)
        self.node = node
        self.index = index
        self.msg = msg

    def parse_error(self, text: str, index: int, root: str | list) -> ParseError:
        """The diagnostic when `root` is top-level element `index`."""
        path = [index, *_path(root, self.node)]
        if self.index is not None:
            path.append(self.index)
        return ParseError(*_line_col(text, _offset(text, path)), self.msg)


# ---------------------------------------------------------------------------
# Elaboration
#
# One table, `_SORTS`, gives each sort's forms by head. A form is a value
# class, whose fields in order are its arguments: an atom field (as
# `ATOM_FIELDS` tells) is a name, any other is read in the sort its
# annotation names. Else it is a builder and its arguments' sorts. A sort
# with one head (`comp`, `cco`, `op`) is read only under it, checked where
# it is an argument, as is a dirt, which `_dirt` reads for its one or two
# arguments. `_elab` reads a form in one frame, so elaboration recurses once
# per nesting level, as checking does.

def _sub(node: list, i: int, head: str | None = None) -> list:
    """Element `i` of `node`, which must be a list (opening with `head`)."""
    child = node[i]
    if type(child) is str:
        raise _Misplaced(node, i, f"expected a list, got {child!r}")
    if head is not None and (not child or child[0] != head):
        raise _Misplaced(child, None, f"expected ({head} ...)")
    return child


def _name(node: list, i: int) -> str:
    """Element `i` of `node`, which must be an atom."""
    child = node[i]
    if type(child) is not str:
        raise _Misplaced(child, None, "expected a name")
    return child


def _elab(node: list, sort: tuple):
    """The syntax that the list `node` spells as a form of `sort`."""
    what, forms = sort
    try:
        build, args, size = forms[node[0]]
    except (IndexError, KeyError, TypeError):  # no head, another head, a list
        head = node[0] if node else ""
        if type(head) is not str:
            raise _Misplaced(head, None, "expected a name") from None
        raise _Misplaced(node, None, f"unknown {what} {head!r}") from None
    if len(node) != size:
        raise _Misplaced(node, None,
                         f"({node[0]} ...) takes {size - 1} arguments, got {len(node) - 1}")
    got = []
    for i, sub, fixed in args:
        child = node[i]
        if sub is None:
            if type(child) is not str:
                raise _Misplaced(child, None, "expected a name")
            got.append(child)
        elif type(child) is str:
            raise _Misplaced(node, i, f"expected a list, got {child!r}")
        elif fixed is not None and (not child or child[0] != fixed):
            raise _Misplaced(child, None, f"expected ({fixed} ...)")
        elif sub is _dirt:
            got.append(_dirt(child))
        else:
            got.append(_elab(child, sub))
    return build(*got)


def _dirt(node: list) -> Dirt:
    """A `(dirt ...)` list, of one or two arguments."""
    if not 2 <= len(node) <= 3:
        raise _Misplaced(node, None, "(dirt (OPS...) TAIL?) expected")
    ops = _sub(node, 1)
    for op in ops:
        if type(op) is not str:
            raise _Misplaced(op, None, "expected a name")
    return Dirt(frozenset(ops) if ops else NO_OPS, _name(node, 2) if len(node) == 3 else None)


def _itself(x):
    return x


def _row(*args) -> tuple:
    return args


def _op(name: str, arg: ValueType, result: ValueType) -> tuple[str, OpSig]:
    return name, OpSig(arg, result)


def _compile(grammar: dict) -> dict:
    """`grammar` with each form as its builder, its arguments and its length:
    an argument is a position, a sort's entry (None for a name, `_dirt` for
    a dirt) and a fixed head or None."""
    sorts = {sort: (what, {}) for sort, (what, _) in grammar.items()}
    fixed = {sort: None if what else next(iter(forms)) for sort, (what, forms) in grammar.items()}
    sorts["Dirt"], fixed["Dirt"] = _dirt, "dirt"
    for sort, (_, forms) in grammar.items():
        for head, form in forms.items():
            if isinstance(form, type):  # a value class: its fields in order
                build, kinds = form, [form.__annotations__[n] for n in form.__match_args__]
            else:
                build, *kinds = form
            args = []
            for i, kind in enumerate(kinds, 1):
                if type(kind) is tuple:
                    i, kind = kind
                args.append((i, None, None) if kind in ATOM_FIELDS
                            else (i, sorts[kind], fixed[kind]))
            sorts[sort][1][head] = build, tuple(args), len(args) + 1
    return sorts


# Each sort: what its forms are, for a diagnostic (None for a sort with one
# head), and its forms; an argument's sort may come with its position.
_SORTS = _compile({
    "Skeleton": ("skeleton form",
                 {"param": SkelParam, "unit": SkelUnit, "base": SkelBase, "arrow": SkelArrow}),
    "ValueType": ("type form",
                  {"param": TyParam, "unit": TyUnit, "base": TyBase, "arrow": TyArrow}),
    "CompType": (None, {"comp": CompType}),
    "VCoercion": ("value coercion", {
        "covar": VCoParam, "corefl": (derived_refl_vty, "ValueType"), "coarrow": VCoArrow,
        # (coseq FIRST SECOND) is SECOND after FIRST; SECOND is read first.
        "coseq": (VCoCompose, (2, "VCoercion"), (1, "VCoercion"))}),
    "CCoercion": (None, {"cco": CCoercion}),
    "DCoercion": ("dirt coercion", {"dvar": DCoParam, "drefl": (derived_refl_dirt, "Dirt"),
                                    "dempty": (derived_empty, "Dirt")}),
    "ValueTerm": ("value form", {"var": Var, "unitval": UnitVal, "lam": Lam, "castv": CastV}),
    "CompTerm": ("computation form", {"return": Return, "opcall": OpCall, "do": Do, "app": App,
                                      "letval": LetVal, "castc": CastC}),
    "op": (None, {"op": (_op, "str", "ValueType", "ValueType")}),
    "declaration": ("declaration", {
        "skel": (_itself, "str"), "dirt": (_itself, "str"), "typaram": (_row, "str", "Skeleton"),
        "tyco": (_row, "str", "ValueType", "ValueType"), "dco": (_row, "str", "Dirt", "Dirt")}),
    "item section": ("item section", {"poltype": (_itself, "ValueType"),
                                      "term": (_itself, "ValueTerm")}),
})


def _context(node: list) -> ParamContext:
    """A `(context ...)` list; the caller has checked the head."""
    declaration = _SORTS["declaration"]
    rows: dict[str, list] = {head: [] for head in declaration[1]}
    for i in range(1, len(node)):
        decl = _sub(node, i)
        row = _elab(decl, declaration)
        rows[decl[0]].append(row)
    return ParamContext(tuple(rows["skel"]), tuple(rows["dirt"]), tuple(rows["typaram"]),
                        tuple(rows["dco"]), tuple(rows["tyco"]))


def _item(node: str | list) -> CorpusItem:
    """A top-level element, which must be an `(item ...)` list."""
    if type(node) is str:
        raise _Misplaced(node, None, f"expected a list, got {node!r}")
    if not node or node[0] != "item":
        raise _Misplaced(node, None, "expected (item ...)")
    if len(node) < 4:
        raise _Misplaced(node, None,
                         "(item NAME (signature ...) (context ...) ...) expected")
    name = _name(node, 1)
    ops = _sub(node, 2, "signature")
    sig = Signature(tuple(_elab(_sub(ops, i, "op"), _SORTS["op"]) for i in range(1, len(ops))))
    ctx = _context(_sub(node, 3, "context"))
    sections = {"poltype": None, "term": None}
    for i in range(4, len(node)):
        extra = _sub(node, i)
        sections[extra[0]] = _elab(extra, _SORTS["item section"])
    poltype, term = sections["poltype"], sections["term"]

    try:
        wf_signature(sig)
        wf_context(sig, ctx)
        if poltype is not None:
            wf_vtype(sig, ctx, poltype)
        if term is not None:
            if poltype is None:
                raise JudgmentError(name, "a term requires a declared type")
            got = type_of_value(sig, ctx, (), term)
            if got != poltype:
                raise JudgmentError(
                    name, f"term has type {got}, declared {poltype}")
    except CheckError as e:
        raise JudgmentError(name, str(e)) from e
    return CorpusItem(name, sig, ctx, poltype, term)


def parse_corpus(text: str) -> list[CorpusItem]:
    """Parse and fully check a corpus file, each item as soon as it is read.
    The diagnostic is the one of the first error in the text, except that a
    parenthesis error anywhere wins and duplicate names are checked last."""
    items: list[CorpusItem] = []
    elements = _read(text)
    try:
        for node in elements:
            items.append(_item(node))
            del node  # the lists of an item are not kept while the next is read
    except _Misplaced as e:
        error = e.parse_error(text, len(items), node)
    except JudgmentError as e:
        error = e
    else:
        seen = set()
        for item in items:
            if item.name in seen:
                raise JudgmentError(item.name, "duplicate item name")
            seen.add(item.name)
        return items
    for _ in elements:  # a parenthesis error later in the text wins
        pass
    raise error


def load_bundled() -> list[CorpusItem]:
    text = resources.files("coersimp").joinpath("data/corpus.sexp").read_text()
    return parse_corpus(text)
