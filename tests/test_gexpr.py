import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dst.errors import EvalError, ExprSyntaxError, UnknownFunction, UnknownIdentifier
from dst.gexpr import FUNCTIONS, BinOp, Call, Neg, Number, Var, compile_expr, evaluate, parse


def ev(src, lam=0.0):
    return evaluate(parse(src), lam)


def test_ast_shapes():
    assert parse("lambda^2") == BinOp("^", Var(), Number(complex(2)))
    assert parse("2*lambda + 1") == BinOp("+", BinOp("*", Number(complex(2)), Var()), Number(complex(1)))
    assert parse("exp(-lambda)*sin(lambda)") == BinOp(
        "*", Call("exp", Neg(Var())), Call("sin", Var())
    )


def test_eval_basics():
    assert ev("lambda^2", 3) == pytest.approx(9)
    assert ev("exp(-lambda)", 0) == pytest.approx(1)
    assert ev("sqrt(lambda)", 4) == pytest.approx(2)
    assert ev("i*i") == pytest.approx(-1)
    assert ev("abs(-3)") == pytest.approx(3)
    assert ev("re(i) + im(i)") == pytest.approx(1)
    assert ev("conj(i)") == pytest.approx(-1j)


def test_precedence():
    assert ev("2+3*4") == pytest.approx(14)
    assert ev("2^3^2") == pytest.approx(512)  # right associative
    assert ev("-2^2") == pytest.approx(-4)  # unary minus looser than power
    assert ev("2^-1") == pytest.approx(0.5)
    assert ev("(2^3)^2") == pytest.approx(64)
    assert ev("6/3/2") == pytest.approx(1)  # left associative


def test_numbers():
    assert ev("1e-3") == pytest.approx(0.001)
    assert ev(".5") == pytest.approx(0.5)
    assert ev("2.5E+1") == pytest.approx(25)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("2lambda")  # no implicit multiplication
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(UnknownFunction):
        parse("foo(lambda)")
    with pytest.raises(UnknownIdentifier):
        parse("lambda + mu")


def test_eval_errors():
    with pytest.raises(EvalError):
        ev("1/lambda", 0)
    with pytest.raises(EvalError):
        ev("log(lambda)", 0)
    with pytest.raises(EvalError):
        ev("exp(exp(exp(lambda)))", 50)  # overflow surfaces as EvalError


CORPUS = [
    "lambda",
    "i",
    "2",
    "2.5",
    "1e-3",
    "-lambda",
    "--lambda",
    "lambda + 1",
    "lambda - 1",
    "1 - lambda - 2",
    "2*lambda",
    "lambda/3",
    "6/3/2",
    "lambda^2",
    "2^3^2",
    "(2^3)^2",
    "-2^2",
    "2^-1",
    "-(lambda + 1)",
    "(lambda + 1)*(lambda - 1)",
    "lambda*(1 + lambda)",
    "exp(lambda)",
    "exp(-lambda)",
    "log(lambda + 1)",
    "sin(lambda)*cos(lambda)",
    "sqrt(lambda^2 + 1)",
    "abs(-lambda)",
    "re(lambda + i)",
    "im(2*i*lambda)",
    "conj(lambda + i)",
    "exp(-lambda)*sin(lambda)",
    "1 + 2*lambda + 3*lambda^2",
    "(1 + lambda)^3",
    "lambda^2/(1 + lambda^2)",
    "i*lambda",
    "2 + 3*4",
    "(2 + 3)*4",
    "lambda - -1",
    "-lambda^2 + 1",
    "exp(i*lambda)",
    "sqrt(abs(lambda))",
    "cos(lambda)^2 + sin(lambda)^2",
    "1/(1 + exp(-lambda))",
    "lambda*lambda*lambda",
    "((lambda))",
    "2^lambda",
    "lambda^lambda",
    "log(exp(lambda))",
    "1.5*lambda + 2.5",
    "sin(cos(lambda))",
]


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _render(e, ctx=0):
    """Print an AST with the fewest parentheses the grammar allows.

    Dropping every parenthesis the precedence table makes redundant is
    what lets the round trip below catch a parser that gets precedence or
    associativity wrong.
    """
    if isinstance(e, Number):
        if e.value == 1j:
            return "i"
        r = e.value.real
        return repr(int(r)) if r == int(r) and abs(r) < 1e15 else repr(r)
    if isinstance(e, Var):
        return "lambda"
    if isinstance(e, Call):
        return f"{e.name}({_render(e.arg)})"
    if isinstance(e, Neg):
        s = "-" + _render(e.operand, _NEG_PREC)
        return f"({s})" if ctx > _NEG_PREC else s
    p = _PREC[e.op]
    if e.op == "^":  # right associative
        s = _render(e.left, p + 1) + e.op + _render(e.right, p)
    else:
        s = _render(e.left, p) + e.op + _render(e.right, p + 1)
    return f"({s})" if p < ctx else s


@pytest.mark.parametrize("src", CORPUS)
def test_print_parse_idempotent(src):
    tree = parse(src)
    printed = _render(tree)
    assert parse(printed) == tree
    # printing is a fixed point after one round
    assert _render(parse(printed)) == printed


@pytest.mark.parametrize("src", CORPUS)
def test_eval_survives_printing(src):
    tree = parse(src)
    lam = 0.7
    assert evaluate(parse(_render(tree)), lam) == evaluate(tree, lam)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=7), st.floats(-10, 10))
def test_polynomials_match_horner(coeffs, lam):
    src = " + ".join(f"{abs(c)!r}*lambda^{k}" if c >= 0 else f"-{abs(c)!r}*lambda^{k}" for k, c in enumerate(coeffs))
    got = evaluate(parse(src), lam)
    want = 0.0
    for c in reversed(coeffs):
        want = want * lam + c
    assert got.real == pytest.approx(want, rel=1e-13, abs=1e-10)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def _walk(e, lam):
    """Reference evaluation: a walk of the tree at each point."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Var):
        return complex(lam)
    if isinstance(e, Neg):
        return -_walk(e.operand, lam)
    if isinstance(e, Call):
        return FUNCTIONS[e.name](_walk(e.arg, lam))
    a, b = _walk(e.left, lam), _walk(e.right, lam)
    return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op in "+-*" else (a / b if e.op == "/" else a**b)


@pytest.mark.parametrize("src", CORPUS)
def test_a_compiled_expression_walks_the_tree_bit_for_bit(src):
    g = compile_expr(parse(src))
    for lam in (0.7, 1e-300, 3.25, 1e3, 2.0 + 0.5j):
        try:
            want = _walk(parse(src), lam)
        except (ArithmeticError, ValueError):
            with pytest.raises(EvalError):
                g(lam)
            continue
        got = g(lam)
        assert (got.real.hex(), got.imag.hex()) == (complex(want).real.hex(), complex(want).imag.hex())


def test_a_compiled_expression_raises_what_evaluate_raises():
    for src, lam, message in (
        ("1/lambda", 0.0, "division by zero"),
        ("log(lambda)", 0.0, r"log\(0\) is undefined"),
        ("sqrt(exp(lambda))", 1e3, "exp failed at"),
        ("exp(exp(exp(lambda)))", 50.0, "exp failed at"),
    ):
        with pytest.raises(EvalError, match=message):
            compile_expr(parse(src))(lam)
