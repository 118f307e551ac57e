"""``design-gen``: the paper's language-designer loop on a 2k-rule grammar.

The grammar is generated from the seed: 220 keyword-led statement kinds
over a shared expression core, 1997 rules.  Each kind has one simple
shape, one clause shape with an option list, and one block shape whose
body is a statement list, so every state after a block opener, after
``;`` and at the start predicts all 220 kinds (about 1000 items).  Each
shape has two variants; the seed deals the 8 combinations out evenly
over the kinds.  The sentences and the pool use 10 kinds, so they touch
a small part of the grammar.

One op is a MODIFY from a pool (each pool rule is added once and deleted
once per cycle, so the grammar is back where it began when a cycle ends),
then a tree-building parse of the 12 pre-tokenized sentences.
Statement-level pool rules dirty every statement-list state; block-level
ones dirty only the states inside one kind's blocks.  Either way the next
parse re-expands what it visits, so lazy/incremental generation does most
of the work here, and lexing, rendering and the service are bypassed.

The structure of the sentences, the pool and the cycle is fixed: each
kind in a sentence plays a fixed role with a fixed shape variant, and
expressions follow a fixed sequence of forms.  The seed picks which kind
plays each role and the words (``id`` or ``num``, ``<`` or ``=``), so
every seed asks the generator and the parser for the same work.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from typing import Any, Dict, Iterator, List, Tuple

from . import common

KINDS = 220
CORE = """\
START ::= PROG
PROG ::= STMT
PROG ::= PROG ; STMT
E ::= E + T
E ::= E - T
E ::= T
T ::= T * F
T ::= T / F
T ::= F
F ::= id
F ::= num
F ::= ( E )
F ::= id ( ARGS )
ARGS ::= E
ARGS ::= ARGS , E
C ::= E < E
C ::= E = E
"""
SIMPLE = (("K", "E"), ("K", "id", ":=", "E"))
CLAUSE = (("K", "(", "ARGS", ")", "X"), ("K", "id", "X"))
BLOCK = (("K", "C", "then", "B", "end"), ("K", "E", "do", "B", "end"))
#: Expression forms, used in this order, round and round.
FORMS = ("{} + {}", "( {} )", "{} * {}", "{} - {}", "( {} )", "{} / {}")

#: Roles in the sentences and the pool, each with its kind's shape
#: variants (simple, clause, block): 4 block kinds (each opens a block in
#: two base sentences and owns a block-level pool rule), 2 statement kinds
#: (each owns a statement-level pool rule), and 4 kinds that lead a base
#: sentence, fill a block or make up a dangling sentence.
BLOCK_ROLES = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
STMT_ROLES = ((0, 0, 0), (1, 1, 1))
OTHER_ROLES = ((0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))
STMT_POOL = len(STMT_ROLES)
BLOCK_POOL = len(BLOCK_ROLES)
#: The cycle, as (pool index, action): pool indices 0-1 are the
#: statement-level rules (a third of the ops, which hold the tail rank),
#: 2-5 the block-level ones (which hold the p50 rank).  Pool rules 0 and 2
#: are each needed by one sentence.
SCRIPT = (
    (2, "add"), (0, "add"), (3, "add"), (2, "delete"), (4, "add"), (0, "delete"),
    (1, "add"), (3, "delete"), (5, "add"), (4, "delete"), (1, "delete"), (5, "delete"),
)
#: Tail percentile of the timed ops (see common.fast_repeats): about 1800
#: ops per 40 s run are 120 to 190 cycles, of which 12 to 19 are kept per
#: position, and 144 timed ops leave 11 samples beyond it (10 are left
#: down to 110 cycles).
TAIL_PCT = 92.0
#: Set-up samples per run, each about 60 ms (see common.SetupClock).
SETUP_REPEATS = 41


class Design:
    """One seeded grammar, sentence set and MODIFY cycle."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        combos = list(itertools.product((0, 1), repeat=3)) * (KINDS // 8 + 1)
        combos = combos[:KINDS]
        rng.shuffle(combos)
        self.shapes: List[Tuple[Tuple[str, ...], ...]] = []
        lines = CORE.splitlines()
        for kind, (simple, clause, block) in enumerate(combos):
            shapes = (SIMPLE[simple], CLAUSE[clause], BLOCK[block])
            self.shapes.append(shapes)
            names = {"K": f"k{kind}", "B": f"B{kind}", "X": f"X{kind}"}
            lines.append(f"STMT ::= S{kind}")
            for shape in shapes:
                lines.append(f"S{kind} ::= " + " ".join(names.get(s, s) for s in shape))
            lines += [f"B{kind} ::= STMT", f"B{kind} ::= B{kind} ; STMT"]
            lines += [f"X{kind} ::=", f"X{kind} ::= X{kind} with E", f"X{kind} ::= X{kind} as id"]
        self.grammar_text = "\n".join(lines) + "\n"

        # Distinct kinds for the roles, each with its role's shape variants.
        free = {combo: [k for k, c in enumerate(combos) if c == combo] for combo in set(combos)}
        for kinds in free.values():
            rng.shuffle(kinds)
        block_kinds = [free[combo].pop() for combo in BLOCK_ROLES]
        stmt_kinds = [free[combo].pop() for combo in STMT_ROLES]
        other = [free[combo].pop() for combo in OTHER_ROLES]
        self.pool: List[Tuple[str, str]] = []  # (class, rule text)
        for j, kind in enumerate(stmt_kinds):
            self.pool.append(("stmt", f"S{kind} ::= k{kind} p{j} E"))
        for j, kind in enumerate(block_kinds, start=STMT_POOL):
            self.pool.append(("block", f"B{kind} ::= p{j} E"))

        # Sentences: (text, pool index it needs or None, expected if not).
        forms = itertools.cycle(FORMS)
        self.sentences: List[Tuple[str, Any, bool]] = []
        for i in range(2 * BLOCK_POOL):
            lead_kind = other[i % len(other)]
            lead = (self._simple if i < BLOCK_POOL else self._clause)(rng, forms, lead_kind)
            inner = self._simple(rng, forms, other[(i + 1) % len(other)])
            block = self._block(rng, forms, block_kinds[i % BLOCK_POOL], inner)
            parts = (lead, block) if i % 2 == 0 else (block, lead)
            self.sentences.append((" ; ".join(parts), None, True))
        kind = stmt_kinds[0]
        self.sentences.append((f"k{kind} p0 {self._expr(rng, forms)}", 0, None))
        body = f"p{STMT_POOL} {self._expr(rng, forms)}"
        self.sentences.append((self._block(rng, forms, block_kinds[0], body), STMT_POOL, None))
        for i in range(2):
            # A dangling operator: no rule, base or pool, ends E with '+'.
            text = (self._simple(rng, forms, other[2 * i]) + " ; "
                    + self._clause(rng, forms, other[2 * i + 1]))
            self.sentences.append((text + " +", None, False))

        self.script: List[Tuple[str, str, int]] = [  # (class, "add"|"delete", pool index)
            (self.pool[index][0], action, index) for index, action in SCRIPT
        ]

    @staticmethod
    def _expr(rng: random.Random, forms: Iterator[str]) -> str:
        form = next(forms)
        return form.format(*(rng.choice(("id", "num")) for _ in range(form.count("{}"))))

    def _fill(
        self, rng: random.Random, forms: Iterator[str], shape: Tuple[str, ...], kind: int,
        body: str = "",
    ) -> str:
        words = []
        for symbol in shape:
            if symbol == "K":
                words.append(f"k{kind}")
            elif symbol == "E":
                words.append(self._expr(rng, forms))
            elif symbol == "C":
                words.append(f"{self._expr(rng, forms)} {rng.choice('<=')} {self._expr(rng, forms)}")
            elif symbol == "ARGS":
                words.append(f"{self._expr(rng, forms)} , {self._expr(rng, forms)}")
            elif symbol == "X":
                words.append(f"with {self._expr(rng, forms)} as id")
            elif symbol == "B":
                words.append(body)
            else:
                words.append(symbol)
        return " ".join(words)

    def _simple(self, rng: random.Random, forms: Iterator[str], kind: int) -> str:
        return self._fill(rng, forms, self.shapes[kind][0], kind)

    def _clause(self, rng: random.Random, forms: Iterator[str], kind: int) -> str:
        return self._fill(rng, forms, self.shapes[kind][1], kind)

    def _block(self, rng: random.Random, forms: Iterator[str], kind: int, body: str) -> str:
        return self._fill(rng, forms, self.shapes[kind][2], kind, body)

    def expected(self, present: set) -> Tuple[bool, ...]:
        """Each sentence's verdict, known from how it was built."""
        return tuple(
            (needs in present) if needs is not None else verdict
            for _text, needs, verdict in self.sentences
        )


class Session:
    """A language built from the design's grammar, sentences pre-tokenized."""

    def __init__(self, design: Design) -> None:
        from repro import Language

        self.language = Language.from_text(design.grammar_text)
        self.lexed = [self.language.lex(text) for text, _n, _v in design.sentences]
        self.parse_all()

    def parse_all(self) -> List[Any]:
        parse = self.language.parse_lexed
        return [parse(lexed) for lexed in self.lexed]

    def close(self) -> None:
        self.language.close()


def prepare(seed: int) -> Design:
    """The set-up helper's inputs (see common.SetupClock)."""
    return Design(seed)


def setup(design: Design) -> Session:
    """What set-up times: build the language, then the cold parse of every
    sentence."""
    return Session(design)


def run(seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from repro import grammar_from_text
    from repro.baselines.earley import EarleyParser

    design = Design(seed)
    session = Session(design)
    setups = common.SetupClock("design_gen", seed, SETUP_REPEATS, seconds)
    language = session.language
    script = design.script
    cycle = len(script)

    tracer = common.Tracer()
    clock = common.OpClock(tracer, trace, cycle)
    latencies: List[float] = []
    classes: List[str] = []
    failed = 0
    present: set = set()
    steady = 0.0
    cycle_counts: Dict[str, int] = {}
    work = {"forks": 0, "shifts": 0}
    table_fraction = 0.0

    gc.collect()
    setups.start()
    deadline = time.perf_counter() + seconds
    op = 0
    try:
        while op < cycle or time.perf_counter() < deadline:
            label, action, index = script[op % cycle]
            if op < cycle:
                before = language.summary()
            clock.start(op)
            if action == "add":
                applied = language.add_rule(design.pool[index][1])
            else:
                applied = language.delete_rule(design.pool[index][1])
            outcomes = session.parse_all()
            latencies.append(clock.stop())
            classes.append(label)
            if op < cycle:
                for key, value in common.counter_deltas(before, language.summary()).items():
                    cycle_counts[key] = cycle_counts.get(key, 0) + value
                for outcome in outcomes:
                    for key in work:
                        work[key] += (outcome.stats or {}).get(key, 0)
                if op == cycle - 1:
                    table_fraction = language.table_fraction()
            if clock.tracing:
                # The same parses again, now that nothing is left to generate:
                # the first parse minus this one is the regeneration time.
                started = time.perf_counter()
                session.parse_all()
                steady += time.perf_counter() - started
            (present.add if action == "add" else present.discard)(index)
            verdicts = tuple(outcome.accepted for outcome in outcomes)
            if not applied or verdicts != design.expected(present):
                failed += 1
            op += 1
            setups.tick()
        setup_s = setups.finish()
    finally:
        clock.close()
        setups.close()
    rss = common.peak_rss_mb()

    # Cross-check the construction verdicts with Earley, with no pool rule
    # and with every pool rule present (each sentence needs at most one).
    checks_ok = True
    terminals = [lexed.terminals for lexed in session.lexed]
    for pool_present in (set(), set(range(len(design.pool)))):
        extra = "".join(design.pool[i][1] + "\n" for i in sorted(pool_present))
        earley = EarleyParser(grammar_from_text(design.grammar_text + extra))
        reference = tuple(earley.recognize(t) for t in terminals)
        if reference != design.expected(pool_present):
            checks_ok = False

    metrics, facts = common.end_to_end(
        setup_s, latencies, classes, cycle, failed, TAIL_PCT, rss
    )
    facts["rules"] = len(design.grammar_text.splitlines())
    if not trace:
        return common.result_line(len(latencies), failed, checks_ok, metrics), facts

    self_ms = tracer.mean_self_ms()
    traced_ops = len(tracer.self_times())
    steady_ms = steady / traced_ops * 1e3
    hits = cycle_counts.get("action_cache_hits", 0)
    misses = cycle_counts.get("action_cache_misses", 0)
    values = {
        "grammar.modify_ms": self_ms.get("modify", 0.0),
        "core.regen_ms": self_ms.get("parse", 0.0) - steady_ms,
        "core.expansions_per_op": cycle_counts.get("expansions", 0) / cycle,
        "core.closure_items_per_op": cycle_counts.get("closure_items", 0) / cycle,
        "core.states_removed_per_op": cycle_counts.get("states_removed", 0) / cycle,
        "core.table_fraction": table_fraction,
        "lr.action_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.engine_ms": steady_ms,
        "runtime.forks_per_op": work["forks"] / cycle,
        "runtime.shifts_per_op": work["shifts"] / cycle,
        "unattributed_ms": self_ms.get("op", 0.0),
        "trace.overhead_frac": clock.overhead,
    }
    facts["layer_self_ms"] = {
        "grammar": values["grammar.modify_ms"],
        "core": values["core.regen_ms"],
        "runtime": values["runtime.engine_ms"],
        "unattributed": values["unattributed_ms"],
    }
    facts["op_wall_ms"] = clock.traced_wall_ms
    tracer.dump(common.WORK_DIR / f"spans-design-gen-{seed}.jsonl")
    return common.result_line(len(latencies), failed, checks_ok, common.layer_metrics(values)), facts
