"""Residue arithmetic: modular fractions and q-expressions.

Exponents throughout the package are residues modulo q + 1 given as closed
formulas in q (and occasionally k).  They are resolved exactly with Fraction
arithmetic so that a non-integral value is an error, never a truncation.
Catalog entries carry a parity condition on k, and users give residues as
comma lists of signed integers ("+0,+7,-14"); both have one reading here.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
from fractions import Fraction

from .errors import NoInverseError, ResidueError


def frac_mod(num: int, den: int, modulus: int) -> int:
    """num * den^-1 mod modulus."""
    if modulus < 2:
        raise ResidueError(f"modulus must be >= 2, got {modulus}")
    try:
        return num * pow(den, -1, modulus) % modulus
    except ValueError:
        g = math.gcd(den, modulus)
        raise NoInverseError(f"{den} is not invertible mod {modulus} "
                             f"(gcd {g})", gcd=g) from None


def parity_admits(parity: str, k: int) -> bool:
    """Whether a catalog condition "any", "odd" or "even" (k) admits k."""
    return parity == "any" or (parity == "odd") == (k % 2 == 1)


_SIGNED_RESIDUE = re.compile(r"[+-]?[0-9]+")


def parse_signed_residues(text: str, count: int,
                          what: str) -> list[tuple[int, int]]:
    """(sign, value) of each entry of a comma list of exactly `count`
    signed residues [+-]?[0-9]+ (ASCII digits, at most one sign); empty
    entries are skipped, and a ResidueError names the list as `what`."""
    terms = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        value = None
        if _SIGNED_RESIDUE.fullmatch(part):
            try:
                value = int(part.lstrip("+-"))
            except ValueError:      # more digits than int() converts
                pass
        if value is None:
            raise ResidueError(f"bad signed residue {part!r} in {what}")
        terms.append((-1 if part[0] == "-" else 1, value))
    if len(terms) != count:
        raise ResidueError(f"{what} needs exactly {count} signed residues")
    return terms


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


@functools.lru_cache(maxsize=256)
def _parse(expr: str) -> ast.expr:
    try:
        return ast.parse(expr, mode="eval").body
    except SyntaxError:
        raise ResidueError(f"expression {expr!r} does not parse") from None


def _evaluate(node: ast.expr, names: dict[str, Fraction]):
    """Integers, the given names, + - * / **, and unary minus, on Fractions."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, names),
                                      _evaluate(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand, names)
    raise ResidueError(f"{ast.unparse(node)!r} is not allowed in a residue "
                       f"formula (integers, q, k, + - * / ** only)")


def resolve_residue(expr: str, q: int, k: int | None = None) -> int:
    """Evaluate a closed formula in q (and k) to a residue mod q + 1.

    The expression is evaluated with exact Fractions; a fractional result
    raises ResidueError.
    """
    names = {"q": Fraction(q)}
    if k is not None:
        names["k"] = Fraction(k)
    try:
        value = _evaluate(_parse(expr), names)
    except ZeroDivisionError:
        raise ResidueError(f"expression {expr!r} divides by zero at q={q}")
    value = Fraction(value)
    if value.denominator != 1:
        raise ResidueError(
            f"expression {expr!r} is not an integer at q={q} (got {value})")
    return int(value) % (q + 1)
