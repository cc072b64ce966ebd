"""Seeded generator of C programs in verisel's supported subset, plus labels.

A program is ``functions`` helper functions ``f0 .. f{F-1}`` and ``main``.
Each function declares ``variables`` locals and runs about ``statements``
statements (nested ones included): assignments, compound assignments,
if/else, ``while`` and ``for`` loops nested up to ``loop_depth`` deep, and
calls. Function ``j`` is called from ``fan_in`` later functions (``main``
counts as the last one), so calls only ever go to earlier functions and the
call graph is acyclic. Two globals are read and written across functions so
that reaching definitions cross call edges.

Only constructs the frontend supports are emitted: no ``goto``, ``do``,
casts, structs, ``sizeof`` or the conditional operator, and every called
function is defined, so extraction produces no diagnostics.

Two seeds drive a program: the layout seed fixes its control structure
(statement kinds, nesting, call sites) and the detail seed its operands,
operators and constants. The label rule is fabricated from two structural
features of the source (see :func:`source_features`) plus the stated noise
in :data:`LABEL_NOISE`. Equal seeds give byte-identical sources and labels.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

PORTFOLIO = ("bmc-style", "cegar-style", "symexec-style")
PROPERTY = "ReachSafety"
GLOBALS = ("g0", "g1")

# Share of labelled programs whose two best verifiers trade places. Which
# ones is drawn by a seed; their number is fixed, so a selector that learns
# the structural rule has its top-1 error at this floor, not at 0.
LABEL_NOISE = 0.2

# svcomp-style score per verifier for each structural class of program.
_CLASS_SCORES = {
    "loop": (2.0, 1.0, 0.5),
    "call": (1.0, 2.0, 0.5),
    "plain": (0.5, 1.0, 2.0),
}

_OPS = ("+", "-", "*", "&", "|", "^")
_CMPS = ("<", "<=", ">", "!=")
_C_WORDS = frozenset({
    "if", "else", "while", "for", "switch", "return", "case", "default",
    "break", "continue", "int", "char", "long", "short", "unsigned", "signed",
    "void", "float", "double", "const", "volatile", "static", "extern",
    "typedef",
})


@dataclass(frozen=True)
class Shape:
    """Shape parameters of one generated program."""

    functions: int     # helper functions besides main
    statements: int    # statements per function, nested ones included
    variables: int     # locals per function
    fan_in: int        # call sites per helper function
    loop_depth: int    # deepest loop nest; 0 means no loops

    def __post_init__(self):
        if min(self.functions, self.fan_in, self.loop_depth) < 0:
            raise ValueError("shape parameters must be >= 0")
        if self.statements < 1 or self.variables < 2:
            raise ValueError("need >= 1 statement and >= 2 variables")


class _Function:
    def __init__(self, layout: random.Random, detail: random.Random,
                 shape: Shape, name: str, params: tuple[str, ...],
                 callees: list[int]):
        self.layout = layout
        self.detail = detail
        self.shape = shape
        self.name = name
        self.params = params
        self.names = [f"v{i}" for i in range(shape.variables)]
        self.readable = self.names + list(params) + list(GLOBALS)
        self.callees = callees
        self.lines: list[str] = []

    def operand(self) -> str:
        if self.detail.random() < 0.25:
            return str(self.detail.randint(1, 9))
        return self.detail.choice(self.readable)

    def target(self) -> str:
        if self.detail.random() < 0.1:
            return self.detail.choice(GLOBALS)
        return self.detail.choice(self.names)

    def cond(self) -> str:
        return f"{self.detail.choice(self.readable)} {self.detail.choice(_CMPS)} {self.operand()}"

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def call(self, depth: int) -> None:
        callee = self.callees.pop()
        self.emit(depth, f"{self.target()} = f{callee}({self.operand()}, {self.operand()});")

    def simple(self, depth: int) -> None:
        roll = self.layout.random()
        if roll < 0.6:
            self.emit(depth, f"{self.target()} = {self.operand()} "
                             f"{self.detail.choice(_OPS)} {self.operand()};")
        elif roll < 0.85:
            self.emit(depth, f"{self.target()} += {self.operand()};")
        else:
            self.emit(depth, f"{self.target()}++;")

    def loop(self, depth: int, nest: int, budget: int) -> int:
        """A loop whose body nests ``nest - 1`` more loops; returns statements used."""
        counter = self.detail.choice(self.names)
        if self.layout.random() < 0.5:
            self.emit(depth, f"for ({counter} = 0; {counter} < {self.detail.randint(2, 9)}; "
                             f"{counter}++) {{")
        else:
            self.emit(depth, f"while ({self.cond()}) {{")
        used = 1
        inner = max(1, budget - 1)
        if nest > 1:
            used += self.loop(depth + 1, nest - 1, inner // 2)
            inner -= inner // 2
        used += self.block(depth + 1, inner, self.shape.loop_depth - (nest > 1))
        self.emit(depth, "}")
        return used

    def block(self, depth: int, budget: int, loops_left: int) -> int:
        used = 0
        while used < budget:
            left = budget - used
            roll = self.layout.random()
            if self.callees and roll < 0.15:
                self.call(depth)
                used += 1
            elif roll < 0.25 and left >= 3:
                self.emit(depth, f"if ({self.cond()}) {{")
                used += 1 + self.block(depth + 1, (left - 1) // 2, loops_left)
                self.emit(depth, "} else {")
                used += self.block(depth + 1, max(1, (left - 1) // 4), loops_left)
                self.emit(depth, "}")
            elif roll < 0.35 and left >= 3 and loops_left > 0 and depth < 8:
                used += self.loop(depth, 1, min(left - 1, 8))
            else:
                self.simple(depth)
                used += 1
        return used

    def render(self) -> str:
        shape = self.shape
        params = ", ".join(f"int {p}" for p in self.params)
        self.emit(0, f"int {self.name}({params}) {{")
        for name in self.names:
            self.emit(1, f"int {name};")
        for name in self.names:
            self.emit(1, f"{name} = {self.operand()};")
        used = 0
        if shape.loop_depth:
            used += self.loop(1, shape.loop_depth,
                              max(shape.loop_depth, shape.statements // 4))
        used += self.block(1, max(0, shape.statements - used - len(self.callees)),
                           shape.loop_depth)
        while self.callees:
            self.call(1)
        self.emit(1, f"return {self.detail.choice(self.names)};")
        self.emit(0, "}")
        return "\n".join(self.lines) + "\n"


def generate_program(shape: Shape, layout: str, seed: str) -> str:
    """C source for ``shape``; equal arguments give byte-identical text.

    ``layout`` fixes the control structure: statement kinds, nesting and
    call sites. ``seed`` picks the operands, operators and constants, so
    programs of one layout differ in their def-use chains but cost about the
    same to analyse.
    """
    layout_rng = random.Random(layout)
    detail = random.Random(seed)
    n = shape.functions
    # callers[k]: earlier functions that function k calls (main is k == n)
    callers: list[list[int]] = [[] for _ in range(n + 1)]
    for j in range(n):
        later = list(range(j + 1, n + 1))
        picks = layout_rng.sample(later, min(shape.fan_in, len(later))) or [n]
        for k in picks:
            callers[k].append(j)
    parts = [f"int {g};\n" for g in GLOBALS]
    for k in range(n + 1):
        name = "main" if k == n else f"f{k}"
        params = () if k == n else ("p0", "p1")
        callees = sorted(callers[k], reverse=True)
        layout_rng.shuffle(callees)
        parts.append(_Function(layout_rng, detail, shape, name, params, callees).render())
    return "\n".join(parts)


def _strip_comments(source: str) -> str:
    return re.sub(r"//[^\n]*|/\*.*?\*/", " ", source, flags=re.S)


def source_features(source: str) -> tuple[bool, bool]:
    """(has a loop, has a call) read from the source text.

    A call is an identifier followed by ``(`` that is not a C keyword and is
    not preceded by a type word (which would make it a definition or a
    prototype).
    """
    text = _strip_comments(source)
    has_loop = re.search(r"\b(while|for)\s*\(", text) is not None
    has_call = False
    for match in re.finditer(r"([A-Za-z_]\w*)(\s*)\(", text):
        if match.group(1) in _C_WORDS:
            continue
        before = re.findall(r"[A-Za-z_]\w*|\S", text[:match.start()][-40:])
        if before and before[-1] in _C_WORDS:
            continue
        has_call = True
        break
    return has_loop, has_call


def label_class(source: str) -> str:
    has_loop, has_call = source_features(source)
    return "loop" if has_loop else "call" if has_call else "plain"


def pick_noisy(ids: list[str], layout: str) -> list[str]:
    """The :data:`LABEL_NOISE` share of ``ids`` whose best two verifiers swap."""
    return sorted(random.Random(layout).sample(sorted(ids), round(LABEL_NOISE * len(ids))))


def label_table(programs: dict[str, str], noisy: set[str], seed: str) -> str:
    """Labels CSV for ``{program id: source}``, with a precomputed label column.

    Scores follow the program's structural class; programs in ``noisy`` swap
    their two best verifiers. Labels are the scores themselves; ``seed`` only
    draws the CPU times, which the label column overrides.
    """
    rng = random.Random(seed)
    rows = ["program_id,property,verifier,svcomp_score,cpu_seconds,outcome,label"]
    for pid in sorted(programs):
        scores = list(_CLASS_SCORES[label_class(programs[pid])])
        if pid in noisy:
            first, second = sorted(range(len(scores)), key=lambda i: -scores[i])[:2]
            scores[first], scores[second] = scores[second], scores[first]
        for verifier, score in zip(PORTFOLIO, scores):
            cpu = rng.randint(10, 3000) / 10
            outcome = "correct" if score >= 1.0 else "unknown"
            rows.append(f"{pid},{PROPERTY},{verifier},{score},{cpu},{outcome},{score}")
    return "\n".join(rows) + "\n"
