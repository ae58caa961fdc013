"""Command line front end: a parser that evaluates expressions over the
s/h/e/p atoms and the operators as it reads them, and subcommands for
expansion, coefficients, verification, and the tableau rules.  All
output is deterministic; --format json emits the documented schema.

Every subcommand but verify runs under one work budget, MAX_WORK, spent
by the layers as they compute (see `_work`); a command that overruns it
is refused like any other input error, with one line and exit 2."""

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
            _refuse_digits("number", j - i)
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
        factor := '-'* primary ('^' num)?
        primary:= rational | atom | kron '(' expr ',' expr ')' | '(' expr ')'
        atom   := ('s'|'h'|'e'|'p') '[' parts ']'
                | 'sk' '[' parts ['/' parts] ']'

    A rational is num or num '/' num (there is no division operator).
    Each rule returns the value of what it parsed, a SymFunc in the Schur
    basis or an OperatorExpr, so an expression is evaluated as it is
    parsed and its work meets the budget in that order.  Every sum,
    product, Kronecker product and power is refused once a coefficient has
    more digits than Python prints (`_checked`, `_checked_op`).
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
        value = self.parse_term()
        while self.peek()[0] in "+-":
            kind = self.next()[0]
            rhs = self.parse_term()
            value = _checked(sf.add(value, rhs) if kind == "+" else value - rhs)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            value = _checked(sf.mul(value, self.parse_factor()))
        return value

    def parse_factor(self):
        sign = 1
        while self.peek()[0] == "-":
            self.next()
            sign = -sign
        base = self.parse_primary()
        if self.peek()[0] == "^":
            self.next()
            exponent = self.expect("num")[1]
            if base.max_degree() == 0:
                base = sf.scale(
                    _constant_power(base.coeff(()), exponent), sf.one())
            else:
                power = sf.one()
                for _ in range(exponent):
                    _work.charge(2 * len(power._num) * len(base._num))
                    power = _checked(sf.mul(power, base))
                base = power
        return base if sign == 1 else sf.scale(-1, base)

    def parse_primary(self):
        tok = self.peek()
        if tok[0] == "num":
            return sf.scale(self.parse_rational(), sf.one())
        if tok[0] == "(":
            self.next()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok[0] == "name":
            name = tok[1]
            if name in _ATOM_BUILDERS:
                self.next()
                self.expect("[")
                parts = self.parse_parts(tok[2])
                self.expect("]")
                return sf.to_basis(_ATOM_BUILDERS[name](parts), "s")
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
                return sf.skew_schur(outer, inner)
            if name == "kron":
                self.next()
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return _checked(sf.kronecker(a, b))
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
                expr = _checked_op(expr * fac)
        return _checked_op((sign * coef) * expr)

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
                arg = self.parse_expr()
                self.expect(")")
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


def _parsed(text, rule):
    """The value of the parser's rule over all of text.  The parser
    recurses once per nesting level of the input, and nothing else that it
    calls recurses per input size, so a RecursionError is the nesting."""
    parser = _Parser(text)
    try:
        value = rule(parser)
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    parser.done()
    return value


_ATOM_BUILDERS = {"s": sf.schur, "h": sf.h, "e": sf.e, "p": sf.p}

# Most work one command may do, and the only bound on powers, matrices and
# ranks, in the units that the layers charge to `_work` (see there),
# weighted so that a unit takes about 1 us on a 2-core machine (0.4-2 us
# measured).  Cold runs there: `kroncoeff 23,23 23,23 46` charges 2.3M
# units in 2.7-4.4 s, `matrix "KB[1]" --max-deg 16` 2.6M in 1.9-3.0 s;
# refused inputs stop within 1.5-7.5 s, but powers of s[1], whose product
# tables cost 1.5-2 us a unit, only within 6-8.5 s.
MAX_WORK = 4_000_000


def _refuse_digits(what, digits):
    """Refuse a number of `digits` decimal digits when Python would not
    convert it to text (`sys.get_int_max_str_digits()`, 0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(
            f"{what} of {digits} digits exceeds the limit of {limit} digits"
        )


def _constant_power(c, n):
    """c ** n for a rational c, refused before it is computed when its
    numerator or denominator would have too many digits (`_refuse_digits`)."""
    for part in (c.numerator, c.denominator):
        digits = int(n * math.log10(abs(part))) + 1 if abs(part) > 1 else 1
        _refuse_digits("power", digits)
    return c ** n


def _refuse_large(numbers):
    """Refuse a coefficient when the largest in absolute value of the ints
    `numbers`, its numerators and denominators, has too many digits
    (`_refuse_digits`)."""
    top = max(map(abs, numbers), default=0) or 1
    # the logarithm of 10**k - 1 rounds up to k
    digits = int(math.log10(top)) + 1
    _refuse_digits("coefficient", digits - (top < 10 ** (digits - 1)))


def _checked(f):
    """f, refused when a numerator of its coefficients or their denominator
    has too many digits (`_refuse_large`)."""
    _refuse_large((f._d, *f._num.values()))
    return f


def _checked_op(expr):
    """The operator expression expr, refused when the numerator or the
    denominator of a word's coefficient has too many digits
    (`_refuse_large`)."""
    _refuse_large(n for c, _w in expr.words for n in c.as_integer_ratio())
    return expr


def evaluate_text(text):
    """Evaluate a symmetric function expression in the Schur basis."""
    return _parsed(text, _Parser.parse_expr)


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


def _cmd_matrix(args):
    expr = parse_operator(args.op)
    mat = op.matrix_of(expr, args.max_deg)
    _refuse_large(n for row in mat.entries for x in row
                  for n in x.as_integer_ratio())
    # rendered whole before anything is printed
    if args.format == "json":
        text = json.dumps(mat.to_json())
    else:
        text = "\n".join(
            ["cols: " + "  ".join(pt.render_partition(c) for c in mat.cols)]
            + [f"{pt.render_partition(lam)}: {' '.join(str(x) for x in row)}"
               for lam, row in zip(mat.rows, mat.entries)]
        )
    print(text)
    return 0


def _cmd_rank(args):
    exprs = [parse_operator(chunk) for chunk in args.ops.split(";") if chunk.strip()]
    if not exprs:
        raise ValueError("no operator expressions given")
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
    _emit_symfunc(args, _checked(expr.apply(evaluate_text(args.expr))))
    return 0


def _bad_tableau(what):
    """The error for a `jdt` argument that is not a tableau JSON object."""
    return ValueError(f"bad tableau JSON: {what}")


def _json_tuples(items, key, size):
    """The value items of the JSON field key, a list of lists of `size`
    integers, as tuples of ints.  The first item, or the whole value, that
    has the wrong form is named in a `bad tableau JSON` error; a number
    that is not integral in the usual `is not an integer` one."""
    if not isinstance(items, list):
        raise _bad_tableau(f"{key} {json.dumps(items)} is not a list")
    for item in items:
        # a number, not a bool, NaN or an infinity
        if not (isinstance(item, list) and len(item) == size and all(
                type(x) is int or (type(x) is float and math.isfinite(x))
                for x in item)):
            raise _bad_tableau(
                f"{key} item {json.dumps(item)} is not a list of {size} integers"
            )
    return [tuple(map(pt._as_integer, item)) for item in items]


def _cmd_jdt(args):
    """Batch jeu de taquin: a JSON tableau plus a list of holes; each slide
    is applied in order and the trace reported."""
    try:
        blob = json.loads(args.tableau)
    except json.JSONDecodeError as exc:
        raise _bad_tableau(exc) from None
    except RecursionError:
        raise _bad_tableau("nested too deeply") from None
    if not isinstance(blob, dict):
        raise _bad_tableau(f"{json.dumps(blob)} is not an object")
    shape = blob.get("shape")
    if not isinstance(shape, str):
        raise _bad_tableau(f"shape {json.dumps(shape)} is not a string")
    shape = pt.parse_skew(shape)
    entries = _json_tuples(blob.get("entries"), "entries", 3)
    holes = _json_tuples(blob.get("holes", []), "holes", 2)
    t = tb.SSYT(shape, {(r, c): v for r, c, v in entries})
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
    bounds = idn.Bounds()
    cmd.add_argument("--max-ab", type=int, default=bounds.max_ab,
                     help="size bound for operator index partitions")
    cmd.add_argument("--max-g", type=int, default=bounds.max_g,
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
    finally:
        _work.set_budget(None)


if __name__ == "__main__":
    raise SystemExit(main())
