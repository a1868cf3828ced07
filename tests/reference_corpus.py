"""The corpus reader and elaborator as they were before the one-pass
reader, kept unchanged as the differential oracle for `coersimp.corpus`.

It reads one character at a time and keeps a `Node` with its line and
column for every token. It builds `coersimp.corpus` items and raises
`coersimp.corpus` errors, so the two readers' results compare with `==`
and their diagnostics by type, message, line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from coersimp.check import (
    CheckError,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    type_of_value,
    wf_context,
    wf_signature,
    wf_vtype,
)
from coersimp.syntax import (
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
from coersimp.corpus import CorpusItem, JudgmentError, ParseError


# ---------------------------------------------------------------------------
# Reader

@dataclass
class Node:
    val: object  # str atom, or list[Node]
    line: int
    col: int

    def expect_list(self, head: str | None = None) -> list[Node]:
        if not isinstance(self.val, list):
            raise ParseError(self.line, self.col, f"expected a list, got {self.val!r}")
        if head is not None:
            if not self.val or self.val[0].val != head:
                raise ParseError(self.line, self.col, f"expected ({head} ...)")
        return self.val

    def expect_atom(self) -> str:
        if isinstance(self.val, list):
            raise ParseError(self.line, self.col, "expected a name")
        return self.val


def _tokenize(text: str):
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield text[start:i], line, startcol
    yield None, line, col


# Deepest parenthesis nesting the reader accepts: elaboration, checking and
# substitution recurse along it and must stay inside the recursion limit.
MAX_NESTING = 256


def _read_all(text: str) -> list[Node]:
    stack: list[Node] = []
    top: list[Node] = []
    for tok, line, col in _tokenize(text):
        if tok is None:
            if stack:
                raise ParseError(line, col, "unclosed parenthesis")
            return top
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(line, col, f"nesting deeper than {MAX_NESTING} levels")
            node = Node([], line, col)
            (stack[-1].val if stack else top).append(node)
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise ParseError(line, col, "unmatched close parenthesis")
            stack.pop()
        else:
            (stack[-1].val if stack else top).append(Node(tok, line, col))
    return top


# ---------------------------------------------------------------------------
# Elaboration

def _args(node: Node, head: str, count: int | None = None) -> list[Node]:
    parts = node.expect_list(head)[1:]
    if count is not None and len(parts) != count:
        raise ParseError(node.line, node.col,
                         f"({head} ...) takes {count} arguments, got {len(parts)}")
    return parts


def _skel(node: Node):
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "param":
        return SkelParam(_args(node, "param", 1)[0].expect_atom())
    if head == "unit":
        _args(node, "unit", 0)
        return SkelUnit()
    if head == "base":
        return SkelBase(_args(node, "base", 1)[0].expect_atom())
    if head == "arrow":
        a, b = _args(node, "arrow", 2)
        return SkelArrow(_skel(a), _skel(b))
    raise ParseError(node.line, node.col, f"unknown skeleton form {head!r}")


def _dirt(node: Node) -> Dirt:
    parts = node.expect_list("dirt")[1:]
    if not parts or len(parts) > 2:
        raise ParseError(node.line, node.col, "(dirt (OPS...) TAIL?) expected")
    ops = frozenset(p.expect_atom() for p in parts[0].expect_list())
    tail = parts[1].expect_atom() if len(parts) == 2 else None
    return Dirt(ops, tail)


def _vtype(node: Node) -> ValueType:
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "param":
        return TyParam(_args(node, "param", 1)[0].expect_atom())
    if head == "unit":
        _args(node, "unit", 0)
        return TyUnit()
    if head == "base":
        return TyBase(_args(node, "base", 1)[0].expect_atom())
    if head == "arrow":
        dom, cod = _args(node, "arrow", 2)
        return TyArrow(_vtype(dom), _ctype(cod))
    raise ParseError(node.line, node.col, f"unknown type form {head!r}")


def _ctype(node: Node) -> CompType:
    ty, d = _args(node, "comp", 2)
    return CompType(_vtype(ty), _dirt(d))


def _vco(node: Node):
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "covar":
        return VCoParam(_args(node, "covar", 1)[0].expect_atom())
    if head == "corefl":
        return derived_refl_vty(_vtype(_args(node, "corefl", 1)[0]))
    if head == "coarrow":
        arg, res = _args(node, "coarrow", 2)
        return VCoArrow(_vco(arg), _cco(res))
    if head == "coseq":
        first, second = _args(node, "coseq", 2)
        return VCoCompose(_vco(second), _vco(first))
    raise ParseError(node.line, node.col, f"unknown value coercion {head!r}")


def _dco(node: Node):
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "dvar":
        return DCoParam(_args(node, "dvar", 1)[0].expect_atom())
    if head == "drefl":
        return derived_refl_dirt(_dirt(_args(node, "drefl", 1)[0]))
    if head == "dempty":
        return derived_empty(_dirt(_args(node, "dempty", 1)[0]))
    raise ParseError(node.line, node.col, f"unknown dirt coercion {head!r}")


def _cco(node: Node) -> CCoercion:
    vco, dco = _args(node, "cco", 2)
    return CCoercion(_vco(vco), _dco(dco))


def _value(node: Node) -> ValueTerm:
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "var":
        return Var(_args(node, "var", 1)[0].expect_atom())
    if head == "unitval":
        _args(node, "unitval", 0)
        return UnitVal()
    if head == "lam":
        x, ty, body = _args(node, "lam", 3)
        return Lam(x.expect_atom(), _vtype(ty), _comp(body))
    if head == "castv":
        v, co = _args(node, "castv", 2)
        return CastV(_value(v), _vco(co))
    raise ParseError(node.line, node.col, f"unknown value form {head!r}")


def _comp(node: Node):
    items = node.expect_list()
    head = items[0].expect_atom() if items else ""
    if head == "return":
        return Return(_value(_args(node, "return", 1)[0]))
    if head == "opcall":
        op, arg, bind, bind_ty, cont = _args(node, "opcall", 5)
        return OpCall(op.expect_atom(), _value(arg), bind.expect_atom(),
                      _vtype(bind_ty), _comp(cont))
    if head == "do":
        x, first, rest = _args(node, "do", 3)
        return Do(x.expect_atom(), _comp(first), _comp(rest))
    if head == "app":
        fn, arg = _args(node, "app", 2)
        return App(_value(fn), _value(arg))
    if head == "letval":
        x, v, body = _args(node, "letval", 3)
        return LetVal(x.expect_atom(), _value(v), _comp(body))
    if head == "castc":
        c, co = _args(node, "castc", 2)
        return CastC(_comp(c), _cco(co))
    raise ParseError(node.line, node.col, f"unknown computation form {head!r}")


def _signature(node: Node) -> Signature:
    ops = []
    for decl in node.expect_list("signature")[1:]:
        name, arg, res = _args(decl, "op", 3)
        ops.append((name.expect_atom(), OpSig(_vtype(arg), _vtype(res))))
    return Signature(tuple(ops))


def _context(node: Node) -> ParamContext:
    skels: list[str] = []
    dirts: list[str] = []
    typarams = []
    tycos = []
    dcos = []
    for decl in node.expect_list("context")[1:]:
        items = decl.expect_list()
        head = items[0].expect_atom() if items else ""
        if head == "skel":
            skels.append(_args(decl, "skel", 1)[0].expect_atom())
        elif head == "dirt":
            dirts.append(_args(decl, "dirt", 1)[0].expect_atom())
        elif head == "typaram":
            name, sk = _args(decl, "typaram", 2)
            typarams.append((name.expect_atom(), _skel(sk)))
        elif head == "tyco":
            name, lo, hi = _args(decl, "tyco", 3)
            tycos.append((name.expect_atom(), _vtype(lo), _vtype(hi)))
        elif head == "dco":
            name, lo, hi = _args(decl, "dco", 3)
            dcos.append((name.expect_atom(), _dirt(lo), _dirt(hi)))
        else:
            raise ParseError(decl.line, decl.col, f"unknown declaration {head!r}")
    return ParamContext(tuple(skels), tuple(dirts), tuple(typarams),
                        tuple(dcos), tuple(tycos))


def _item(node: Node) -> CorpusItem:
    parts = node.expect_list("item")
    if len(parts) < 4:
        raise ParseError(node.line, node.col,
                         "(item NAME (signature ...) (context ...) ...) expected")
    name = parts[1].expect_atom()
    sig = _signature(parts[2])
    ctx = _context(parts[3])
    poltype = None
    term = None
    for extra in parts[4:]:
        items = extra.expect_list()
        head = items[0].expect_atom() if items else ""
        if head == "poltype":
            poltype = _vtype(_args(extra, "poltype", 1)[0])
        elif head == "term":
            term = _value(_args(extra, "term", 1)[0])
        else:
            raise ParseError(extra.line, extra.col, f"unknown item section {head!r}")

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


def parse_corpus_reference(text: str) -> list[CorpusItem]:
    """Parse and fully check a corpus file."""
    items = [_item(node) for node in _read_all(text)]
    seen = set()
    for item in items:
        if item.name in seen:
            raise JudgmentError(item.name, "duplicate item name")
        seen.add(item.name)
    return items
