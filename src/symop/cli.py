"""Command line front end: an expression parser over the s/h/e/p atoms and
subcommands for expansion, coefficients, verification, and the tableau
rules.  All output is deterministic; --format json emits the documented
schema.

Every subcommand but verify runs under one work budget, MAX_WORK, spent
by the layers as they compute (see `_work`); a command that overruns it
is refused like any other input error, with one line and exit 2.  Powers
and truncated matrices keep limits of their own, on costs that are not
charged."""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import _work
from . import coeffs
from . import identities as idn
from . import operators as op
from . import partitions as pt
from . import symfunc as sf
from . import tableaux as tb


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "[](),/+-*^":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := ['-'] primary ('^' num)?
        primary:= rational | atom | kron '(' expr ',' expr ')' | '(' expr ')'
        atom   := ('s'|'h'|'e'|'p') '[' parts ']'
                | 'sk' '[' parts ['/' parts] ']'

    A rational is num or num '/' num (there is no division operator).
    Parse trees are plain tuples, evaluated by `evaluate`.
    """

    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def done(self):
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])

    # ----- symmetric function expressions

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in "+-":
            kind = self.next()[0]
            rhs = self.parse_term()
            node = ("add" if kind == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            node = ("mul", node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.parse_factor())
        node = self.parse_primary()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            node = ("pow", node, tok[1])
        return node

    def parse_primary(self):
        tok = self.peek()
        if tok[0] == "num":
            return ("num", self.parse_rational())
        if tok[0] == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok[0] == "name":
            name = tok[1]
            if name in ("s", "h", "e", "p"):
                self.next()
                self.expect("[")
                parts = self.parse_parts(tok[2])
                self.expect("]")
                return (name, parts)
            if name == "sk":
                self.next()
                self.expect("[")
                outer = self.parse_parts(tok[2])
                inner = ()
                if self.peek()[0] == "/":
                    self.next()
                    inner = self.parse_parts(tok[2])
                self.expect("]")
                if not pt.contains(inner, outer):
                    raise ParseError(
                        f"inner shape {inner} not contained in {outer}", tok[2]
                    )
                return ("sk", outer, inner)
            if name == "kron":
                self.next()
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return ("kron", a, b)
            raise ParseError(f"unknown name {name!r}", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def parse_rational(self):
        num = self.expect("num")[1]
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("num")[1]
            if den == 0:
                raise ParseError("zero denominator", self.peek()[2])
            return Fraction(num, den)
        return Fraction(num)

    def parse_parts(self, pos):
        vals = [self.expect("num")[1]]
        while self.peek()[0] == ",":
            self.next()
            vals.append(self.expect("num")[1])
        try:
            return pt.make_partition(vals)
        except ValueError:
            raise ParseError(
                f"parts must be weakly decreasing: {vals}", pos
            ) from None

    # ----- operator expressions

    def parse_op_expr(self):
        node = self.parse_op_term()
        while self.peek()[0] in "+-":
            kind = self.next()[0]
            rhs = self.parse_op_term()
            node = node + rhs if kind == "+" else node - rhs
        return node

    def parse_op_term(self):
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        coef = Fraction(1)
        have_coef = False
        if self.peek()[0] == "num":
            coef = self.parse_rational()
            have_coef = True
            if self.peek()[0] == "*":
                self.next()
        factors = []
        while True:
            factor = self.try_op_factor()
            if factor is None:
                break
            factors.append(factor)
        if not factors:
            if not have_coef:
                tok = self.peek()
                raise ParseError(f"expected an operator, found {tok[1]!r}", tok[2])
            expr = op.identity_op()
        else:
            expr = factors[0]
            for fac in factors[1:]:
                expr = expr * fac
        return (sign * coef) * expr

    def try_op_factor(self):
        tok = self.peek()
        if tok[0] == "name" and tok[1] in ("U", "D", "K", "KB"):
            kind = tok[1]
            self.next()
            nxt = self.peek()
            if nxt[0] == "[":
                self.next()
                parts = self.parse_parts(tok[2])
                self.expect("]")
                arg = sf.schur(parts)
            elif nxt[0] == "(":
                self.next()
                node = self.parse_expr()
                self.expect(")")
                try:
                    arg = evaluate(node)
                except RecursionError:
                    # not the parser's own nesting
                    raise ValueError(_TOO_LARGE) from None
            else:
                raise ParseError(f"{kind} needs '[parts]' or '(expr)'", nxt[2])
            return getattr(op, kind)(arg)
        if tok[0] == "name" and tok[1] == "Id":
            self.next()
            return op.identity_op()
        if tok[0] == "(":
            self.next()
            node = self.parse_op_expr()
            self.expect(")")
            return node
        return None


# The parser recurses once per nesting level of the input.  Any other
# recursion that overflows grows with the size of the input instead:
# `coeffs.mn_character` recurses once per part of rho, `tableaux._fill` once
# per cell.
_TOO_LARGE = "input too large for Python's recursion limit"


def _parsed(text, rule):
    parser = _Parser(text)
    try:
        node = rule(parser)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    parser.done()
    return node


def parse(text):
    """Parse a symmetric function expression into a tuple tree."""
    return _parsed(text, _Parser.parse_expr)


_ATOM_BUILDERS = {"s": sf.schur, "h": sf.h, "e": sf.e, "p": sf.p}

# Highest degree a power f^n may reach.  Multiplying out costs about twice
# as much per extra degree; s[1]^20 takes 1.5 s on a 2-core machine.  The
# growth of its big-integer coefficients is not charged to MAX_WORK.  A
# constant base is raised in one step instead (`_constant_power`).
MAX_POWER_DEGREE = 20

# Most work one command may do, in the units that the layers charge to
# `_work` as they compute: memo-table misses, enumerated partitions, and
# tableau fillings, weighted so that a unit takes about 1 us on a 2-core
# machine (0.4-2 us measured).  Cold runs there: `kroncoeff 23,23 23,23 46`
# charges 2.3M units in 2.7-4.4 s, `matrix "KB[1]" --max-deg 16` 1.8M in
# 2.4-2.8 s; refused inputs stop within 1.5-7.5 s.
MAX_WORK = 4_000_000


def _constant_power(c, n):
    """c ** n for a rational c, refused before it is computed when its
    numerator or denominator would have more digits than Python converts
    to text (`sys.get_int_max_str_digits()`, 0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    for part in (c.numerator, c.denominator):
        digits = int(n * math.log10(abs(part))) + 1 if abs(part) > 1 else 1
        if limit and digits > limit:
            raise ValueError(
                f"power of {digits} digits exceeds the limit of {limit} digits"
            )
    return c ** n


def evaluate(node):
    """Evaluate a parse tree to a SymFunc in the Schur basis."""
    kind = node[0]
    if kind == "num":
        return sf.scale(node[1], sf.one())
    if kind in _ATOM_BUILDERS:
        return sf.to_basis(_ATOM_BUILDERS[kind](node[1]), "s")
    if kind == "sk":
        return sf.skew_schur(node[1], node[2])
    if kind == "add":
        return sf.add(evaluate(node[1]), evaluate(node[2]))
    if kind == "sub":
        return sf.add(evaluate(node[1]), sf.scale(-1, evaluate(node[2])))
    if kind == "neg":
        return sf.scale(-1, evaluate(node[1]))
    if kind == "mul":
        return sf.mul(evaluate(node[1]), evaluate(node[2]))
    if kind == "pow":
        base, exponent = evaluate(node[1]), node[2]
        if base.max_degree() == 0:
            return sf.scale(_constant_power(base.coeff(()), exponent), sf.one())
        degree = exponent * base.max_degree()
        if degree > MAX_POWER_DEGREE:
            raise ValueError(
                f"power of degree {degree} exceeds the limit {MAX_POWER_DEGREE}"
            )
        out = sf.one()
        for _ in range(exponent):
            out = sf.mul(out, base)
        return out
    if kind == "kron":
        return sf.kronecker(evaluate(node[1]), evaluate(node[2]))
    raise ValueError(f"bad node {node!r}")


def evaluate_text(text):
    return evaluate(parse(text))


def parse_operator(text):
    """Parse an operator expression like '2*U[1]D[1] - Id' or 'K(p[2])U(p[1])'."""
    return _parsed(text, _Parser.parse_op_expr)


# ---------------------------------------------------------------------------
# subcommands

def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _emit_symfunc(args, f):
    _emit(args, sf.render(f), sf.to_json(f))


def _cmd_expand(args):
    _emit_symfunc(args, evaluate_text(args.expr))
    return 0


def _cmd_kron(args):
    f = evaluate_text(args.left)
    g = evaluate_text(args.right)
    _emit_symfunc(args, sf.kronecker(f, g))
    return 0


def _cmd_skew(args):
    shape = pt.parse_skew(args.shape)
    _emit_symfunc(args, sf.skew_schur(shape))
    return 0


def _cmd_coeff(args):
    """lrcoeff, kroncoeff and char: one integer from partitions, the
    arguments named by args.names in order."""
    val = args.coeff(*(pt.parse_partition(getattr(args, n)) for n in args.names))
    _emit(args, str(val), val)
    return 0


def _cmd_verify(args):
    bounds = idn.Bounds(max_ab=args.max_ab, max_g=args.max_g)
    ids = None if args.identity == "all" else [args.identity]
    reports = idn.run_suite(bounds, ids)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
    return 0 if all(r.passed for r in reports) else 1


def _emit_signed_terms(args, terms):
    text = "\n".join(
        f"{'+' if sign > 0 else '-'} sk[{shape}]" for sign, shape in terms
    )
    _emit(
        args,
        text if terms else "0",
        [{"sign": sign, "shape": str(shape)} for sign, shape in terms],
    )


def _cmd_skewlr(args):
    a = pt.parse_skew(args.left)
    b = pt.parse_skew(args.right)
    if args.terms:
        _emit_signed_terms(args, tb.skew_lr_terms(a, b))
    else:
        _emit_symfunc(args, tb.skew_lr_product(a, b))
    return 0


def _cmd_skewpieri(args):
    shape = pt.parse_skew(args.shape)
    if args.terms:
        _emit_signed_terms(args, tb.skew_pieri_terms(args.k, shape))
    else:
        _emit_symfunc(args, tb.skew_pieri(args.k, shape))
    return 0


def _cmd_skewcorners(args):
    alpha = pt.parse_partition(args.alpha)
    theta = pt.parse_partition(args.theta)
    _emit_symfunc(args, tb.skew_corners_rhs(alpha, theta))
    return 0


# Highest codomain degree of the truncation in `matrix` and `rank`: the
# domain bound plus the largest degree raise.  The cost grows 1.3-1.9x per
# degree; on a 2-core machine `matrix "U[1]" --max-deg 15` takes 0.35-0.45
# s, `matrix "KB[1]" --max-deg 16` 4-5 s (nearly all of it the Kronecker
# table at degree 16) and a `rank` of 12 words U_a D_b, D_b U_a and Id
# with |a|, |b| <= 2 at `--max-deg 14` 0.85-0.9 s (a dependent family, so
# every basis vector is evaluated; the 36 independent words U_a D_b with
# nonempty |a|, |b| <= 3 take 0.2 s at `--max-deg 13`, the rank stopping
# at full rank after degree 3), while the dense matrix of
# `matrix "U[1]" --max-deg 40` would have 5.6e10 entries, allocated by
# `operators.matrix_of` before any work charged to MAX_WORK.
MAX_TRUNCATION_DEGREE = 16


def _check_truncation(exprs, max_deg):
    cod = max_deg + max(max(0, e.max_degree_shift()) for e in exprs)
    if cod > MAX_TRUNCATION_DEGREE:
        raise ValueError(
            f"truncation of codomain degree {cod} exceeds the limit "
            f"{MAX_TRUNCATION_DEGREE}"
        )


def _cmd_matrix(args):
    expr = parse_operator(args.op)
    _check_truncation([expr], args.max_deg)
    mat = op.matrix_of(expr, args.max_deg)
    if args.format == "json":
        print(json.dumps(mat.to_json()))
    else:
        print("cols: " + "  ".join(pt.render_partition(c) for c in mat.cols))
        for lam, row in zip(mat.rows, mat.entries):
            cells = " ".join(str(x) for x in row)
            print(f"{pt.render_partition(lam)}: {cells}")
    return 0


def _cmd_rank(args):
    exprs = [parse_operator(chunk) for chunk in args.ops.split(";") if chunk.strip()]
    if not exprs:
        raise ValueError("no operator expressions given")
    _check_truncation(exprs, args.max_deg)
    rank = op.stacked_rank(exprs, args.max_deg)
    verdict = (
        "independent" if rank == len(exprs) else "dependent at this truncation"
    )
    _emit(
        args,
        f"rank {rank} of {len(exprs)}: {verdict}",
        {"rank": rank, "count": len(exprs), "independent": rank == len(exprs)},
    )
    return 0


def _cmd_apply(args):
    expr = parse_operator(args.op)
    _emit_symfunc(args, expr.apply(evaluate_text(args.expr)))
    return 0


def _cmd_jdt(args):
    """Batch jeu de taquin: a JSON tableau plus a list of holes; each slide
    is applied in order and the trace reported."""
    try:
        blob = json.loads(args.tableau)
        shape = pt.parse_skew(blob["shape"])
        entries = {
            (pt._as_integer(r), pt._as_integer(c)): pt._as_integer(v)
            for r, c, v in blob["entries"]
        }
        holes = [
            (pt._as_integer(r), pt._as_integer(c)) for r, c in blob.get("holes", [])
        ]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"bad tableau JSON: {exc}") from None
    t = tb.SSYT(shape, entries)
    steps = []
    for hole in holes:
        t, vacated = tb.jdt_slide(t, pt.Cell(*hole))
        steps.append(
            {
                "hole": list(hole),
                "vacated": list(vacated) if vacated is not None else None,
                "shape": str(t.shape),
                "entries": sorted(
                    [cell.row, cell.col, v] for cell, v in t.entries.items()
                ),
            }
        )
    if args.format == "json":
        print(json.dumps({"steps": steps}))
    else:
        for step in steps:
            print(
                f"hole {step['hole']} -> vacated {step['vacated']}; "
                f"shape {step['shape']}"
            )
    return 0


def _degree_bound(text):
    """argparse type of --max-deg: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return value


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    parser = argparse.ArgumentParser(
        prog="symop",
        description="Exact computer algebra for symmetric functions and the "
        "operator families U, D, K, KB.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("expand", parents=[common],
                         help="evaluate an expression in the Schur basis")
    cmd.add_argument("expr")
    cmd.set_defaults(func=_cmd_expand)

    cmd = sub.add_parser("kron", parents=[common],
                         help="Kronecker product of two expressions")
    cmd.add_argument("left")
    cmd.add_argument("right")
    cmd.set_defaults(func=_cmd_kron)

    cmd = sub.add_parser("skew", parents=[common],
                         help="Schur expansion of a skew shape")
    cmd.add_argument("shape")
    cmd.set_defaults(func=_cmd_skew)

    for name, coeff, names, text in (
        ("lrcoeff", coeffs.lr_coeff, ("nu", "lam", "mu"),
         "Littlewood-Richardson coefficient c^nu_{lam,mu}"),
        ("kroncoeff", coeffs.kron_coeff, ("lam", "mu", "nu"),
         "Kronecker coefficient g_{lam,mu,nu}"),
        ("char", coeffs.mn_character, ("lam", "rho"),
         "symmetric group character chi^lam(rho)"),
    ):
        cmd = sub.add_parser(name, parents=[common], help=text)
        for arg in names:
            cmd.add_argument(arg)
        cmd.set_defaults(func=_cmd_coeff, coeff=coeff, names=names)

    cmd = sub.add_parser("verify", parents=[common],
                         help="verify catalog identities by exhaustion")
    cmd.add_argument("identity", help="catalog id or 'all'")
    cmd.add_argument("--max-ab", type=int, default=2,
                     help="size bound for operator index partitions")
    cmd.add_argument("--max-g", type=int, default=3,
                     help="size bound for test vectors and free shapes")
    cmd.set_defaults(func=_cmd_verify)

    cmd = sub.add_parser("skewlr", parents=[common],
                         help="product of two skew Schur functions by the "
                         "skew Littlewood-Richardson rule")
    cmd.add_argument("left")
    cmd.add_argument("right")
    cmd.add_argument("--terms", action="store_true",
                     help="print the signed skew terms")
    cmd.set_defaults(func=_cmd_skewlr)

    cmd = sub.add_parser("skewpieri", parents=[common],
                         help="skew Pieri product s_(k) * s_{shape}")
    cmd.add_argument("k", type=int)
    cmd.add_argument("shape")
    cmd.add_argument("--terms", action="store_true")
    cmd.set_defaults(func=_cmd_skewpieri)

    cmd = sub.add_parser("skewcorners", parents=[common],
                         help="corner-rule side of the skew Kronecker identity")
    cmd.add_argument("alpha")
    cmd.add_argument("theta")
    cmd.set_defaults(func=_cmd_skewcorners)

    cmd = sub.add_parser("matrix", parents=[common],
                         help="exact truncated matrix of an operator")
    cmd.add_argument("op")
    cmd.add_argument("--max-deg", type=_degree_bound, default=3)
    cmd.set_defaults(func=_cmd_matrix)

    cmd = sub.add_parser("rank", parents=[common],
                         help="rank of semicolon-separated operator "
                         "expressions on a truncation")
    cmd.add_argument("ops")
    cmd.add_argument("--max-deg", type=_degree_bound, default=3)
    cmd.set_defaults(func=_cmd_rank)

    cmd = sub.add_parser("apply", parents=[common],
                         help="apply an operator expression to an expression")
    cmd.add_argument("op")
    cmd.add_argument("expr")
    cmd.set_defaults(func=_cmd_apply)

    cmd = sub.add_parser("jdt", parents=[common],
                         help="batch jeu de taquin slides from a JSON tableau")
    cmd.add_argument(
        "tableau",
        help='JSON like {"shape":"2,2/2","entries":[[1,0,5],[1,1,5]],'
        '"holes":[[0,1]]}',
    )
    cmd.set_defaults(func=_cmd_jdt)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    # `verify` is bounded by its own --max-ab and --max-g
    _work.set_budget(None if args.func is _cmd_verify else MAX_WORK)
    try:
        code = args.func(args)
        # a closed pipe shows here, not in the flush at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: send the rest of the output to devnull, as
        # the `signal` module's documentation does, so that the flush at
        # exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ParseError, ValueError) as exc:
        print(f"symop: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"symop: error: {_TOO_LARGE}", file=sys.stderr)
        return 2
    finally:
        _work.set_budget(None)


if __name__ == "__main__":
    raise SystemExit(main())
