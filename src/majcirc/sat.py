"""A small CDCL SAT solver for DIMACS CNF, in pure Python.

The design follows MiniSat (Een and Sorensson, SAT 2003): two watched
literals per clause, first-UIP conflict analysis with local clause
minimisation, VSIDS variable activity on a heap, Luby restarts and phase
saving.  At restarts the learnt clauses are halved by literal block distance
once they outnumber a third of the clauses, growing that limit by a tenth
each time, and clauses satisfied at level 0 are dropped.

search.find_solver() falls back on this module when no solver is configured
or on PATH.  It decides the small gate spaces (n up to about 7) in seconds;
larger ones want an external solver.  It imports only the standard library,
so it runs as ``python -m majcirc.sat FILE.cnf`` or as a plain script,
``python path/to/sat.py FILE.cnf``.  The output is the competition format:
``s SATISFIABLE`` followed by ``v`` lines that assign every variable 1..nv
and end in 0, exit status 10; or ``s UNSATISFIABLE``, exit status 20.
Unreadable or malformed input exits with status 1 and a message on stderr.
A reader that closes the output early (``| head -1``) changes neither the
exit status nor stderr.
"""

from __future__ import annotations

import os
import sys
from heapq import heapify, heappop, heappush

EXIT_SAT = 10
EXIT_UNSAT = 20
RESTART_BASE = 100  # conflicts per Luby unit
VAR_DECAY = 0.95
RESCALE = 1e100


def luby(i: int) -> int:
    """The i-th term (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """One CNF over variables 1..num_vars; add clauses, then call solve().

    Literals are coded internally as 2v (v true) and 2v+1 (v false), so a
    literal's negation is lit ^ 1.  watches[lit] holds the clauses that
    watch lit, visited when lit becomes false; the two watched literals of
    a clause are its first two, and a clause that is the reason for an
    assignment carries the implied literal first.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        size = 2 * num_vars + 2
        self.val = [0] * size  # per literal: 1 true, -1 false, 0 unassigned
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        # entries (-activity, var); stale ones are skipped when popped
        self.heap = [(0.0, v) for v in range(1, num_vars + 1)]
        self.phase = [1] * (num_vars + 1)  # saved polarity: 1 means false
        self.seen = [0] * (num_vars + 1)
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []
        self.lbd: list[int] = []
        self.max_learnts = 0.0
        self.ok = True

    def add_clause(self, dimacs_lits) -> None:
        """Add one clause of DIMACS literals; call before solve()."""
        if not self.ok:
            return
        lits: list[int] = []
        for x in dimacs_lits:
            lit = 2 * x if x > 0 else -2 * x + 1
            if lit ^ 1 in lits:
                return  # tautology
            if lit not in lits:
                lits.append(lit)
        if not lits:
            self.ok = False
        elif len(lits) == 1:
            lit = lits[0]
            if self.val[lit] == -1:
                self.ok = False
            elif self.val[lit] == 0:
                self._assign(lit, None)
        else:
            self.clauses.append(lits)
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        v = lit >> 1
        self.val[lit] = 1
        self.val[lit ^ 1] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation over the trail; the conflicting clause, if any."""
        val, watches, trail = self.val, self.watches, self.trail
        level, reason = self.level, self.reason
        depth = len(self.trail_lim)
        while self.qhead < len(trail):
            false_lit = trail[self.qhead] ^ 1
            self.qhead += 1
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if val[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != -1:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] == -1:
                        del ws[j:i]
                        self.qhead = len(trail)
                        return c
                    v = first >> 1
                    val[first] = 1
                    val[first ^ 1] = -1
                    level[v] = depth
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        return None

    def _bump(self, v: int) -> None:
        """Raise v's activity; v is assigned, and _cancel_until re-heaps it."""
        act = self.activity
        act[v] += self.var_inc
        if act[v] > RESCALE:
            for u in range(1, self.num_vars + 1):
                act[u] /= RESCALE
            self.var_inc /= RESCALE
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        val, act = self.val, self.activity
        self.heap = [(-act[v], v) for v in range(1, self.num_vars + 1) if val[2 * v] == 0]
        heapify(self.heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first, the literal of
        the backjump level second) and the level to backjump to."""
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        depth = len(self.trail_lim)
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        start = 0
        while True:
            for q in confl[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    self._bump(v)
                    seen[v] = 1
                    if level[v] >= depth:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            seen[v] = 0
            pending -= 1
            if pending == 0:
                break
            confl = reason[v]
            start = 1
        learnt[0] = p ^ 1

        # drop literals implied by the rest of the clause (local minimisation)
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r is None or any(not seen[x >> 1] and level[x >> 1] > 0 for x in r[1:]):
                kept.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0

        if len(kept) == 1:
            return kept, 0
        hi = max(range(1, len(kept)), key=lambda i: level[kept[i] >> 1])
        kept[1], kept[hi] = kept[hi], kept[1]
        return kept, level[kept[1] >> 1]

    def _cancel_until(self, depth: int) -> None:
        if len(self.trail_lim) <= depth:
            return
        val, phase, reason, act, heap = self.val, self.phase, self.reason, self.activity, self.heap
        start = self.trail_lim[depth]
        for lit in self.trail[start:]:
            v = lit >> 1
            val[lit] = val[lit ^ 1] = 0
            reason[v] = None
            phase[v] = lit & 1
            heappush(heap, (-act[v], v))
        del self.trail[start:]
        del self.trail_lim[depth:]
        self.qhead = start
        if len(heap) > 4 * self.num_vars + 64:
            self._rebuild_heap()

    def _decide(self) -> int:
        """Unassigned variable of highest activity, or 0 when none is left."""
        heap, val, act = self.heap, self.val, self.activity
        while heap:
            key, v = heappop(heap)
            if val[2 * v] == 0 and -key == act[v]:
                return v
        return 0

    def _reduce(self) -> None:
        """At level 0: drop clauses satisfied there, strip literals false
        there, keep the better half of the learnt clauses by LBD, and
        rebuild the watch lists."""
        val = self.val
        ranked = sorted(zip(self.lbd, self.learnts), key=lambda t: (t[0], len(t[1])))
        half = len(ranked) // 2
        ranked = [
            (b, c)
            for i, (b, c) in enumerate(ranked)
            if (i < half or b <= 2) and not any(val[lit] == 1 for lit in c)
        ]
        self.lbd = [b for b, _ in ranked]
        self.learnts = [c for _, c in ranked]
        self.clauses = [c for c in self.clauses if not any(val[lit] == 1 for lit in c)]
        self.max_learnts *= 1.1

        self.watches = [[] for _ in self.watches]
        for c in self.clauses + self.learnts:
            c[:] = [lit for lit in c if val[lit] == 0]
            # propagation reached a fixpoint at level 0, so every clause
            # left keeps at least two unassigned literals
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)

    def _search(self, budget: int) -> bool | None:
        """CDCL until a verdict or budget conflicts (then None, at level 0)."""
        conflicts = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                if not self.trail_lim:
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self.learnts.append(learnt)
                    self.lbd.append(len({self.level[lit >> 1] for lit in learnt}))
                    self._assign(learnt[0], learnt)
                self.var_inc /= VAR_DECAY
                continue
            if conflicts >= budget:
                self._cancel_until(0)
                if len(self.learnts) >= self.max_learnts:
                    self._reduce()
                return None
            v = self._decide()
            if v == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self._assign(2 * v + self.phase[v], None)

    def solve(self) -> list[int] | None:
        """A model as DIMACS literals for variables 1..num_vars in order,
        or None when the clauses are unsatisfiable."""
        if not self.ok:
            return None
        self.max_learnts = max(len(self.clauses) / 3, 100)
        restarts = 0
        while True:
            verdict = self._search(luby(restarts) * RESTART_BASE)
            if verdict is False:
                return None
            if verdict:
                return [v if self.val[2 * v] == 1 else -v for v in range(1, self.num_vars + 1)]
            restarts += 1


def solve(num_vars: int, clauses) -> list[int] | None:
    """Model of the CNF as DIMACS literals over 1..num_vars, or None if UNSAT."""
    solver = Solver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Variable count and clauses of DIMACS CNF text.

    Clauses may span lines and end at 0; `c` lines are comments and `%`
    ends the formula.  The variable count is the larger of the header's
    and the largest variable used.  Raises ValueError on a malformed
    header, a non-integer token or a clause missing its final 0.
    """
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: bad header {line!r}")
            num_vars = max(num_vars, int(fields[2]))
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: not a literal: {tok!r}") from None
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
                num_vars = max(num_vars, abs(lit))
    if current:
        raise ValueError("last clause is not terminated by 0")
    return num_vars, clauses


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m majcirc.sat FILE.cnf", file=sys.stderr)
        return 1
    try:
        with open(args[0]) as fh:
            num_vars, clauses = parse_dimacs(fh.read())
    except (OSError, ValueError) as e:
        print(f"majcirc.sat: {e}", file=sys.stderr)
        return 1
    model = solve(num_vars, clauses)
    if model is None:
        return _emit("s UNSATISFIABLE", EXIT_UNSAT)
    lits = model + [0]
    lines = ["s SATISFIABLE"]
    lines += ["v " + " ".join(map(str, lits[i : i + 20])) for i in range(0, len(lits), 20)]
    return _emit("\n".join(lines), EXIT_SAT)


def _emit(text: str, status: int) -> int:
    """Print text and return status, quietly when the reader has gone."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Unwritten output stays buffered; point stdout at devnull so the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
