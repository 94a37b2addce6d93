import pytest

from slcurv.fields import ParseError, parse_expression

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# grammar pieces plus inputs that reach Python's own limits: deep nesting,
# long sums, huge exponents, indices and literals, and non-ASCII digits,
# which str.isdigit accepts and int and float reject
TOKENS = ["x1", "x3", "x0", "x" + "9" * 5000, "y", "2", "0.5", ".", "9" * 400, "(", ")", "-", "+", "*",
          "/", "^", "^7", "^" + "9" * 5000, " ", "²", "١", "x²", "é"]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(st.text(max_size=60), st.lists(st.sampled_from(TOKENS), max_size=600).map("".join)))
def test_parser_raises_only_parse_error(text):
    try:
        parse_expression(text, 3)
    except ParseError:
        pass
