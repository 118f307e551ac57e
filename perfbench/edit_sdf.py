"""``edit-sdf``: an editor session of keystroke-level character edits.

The language is ``Language.from_sdf(SDF.sdf)``; the documents are the
snapshotted ``SDF.sdf`` and ``ASF.sdf`` of the section-7 corpus.  The
session is a cycle of *episodes*; each episode breaks the text one
keystroke at a time and then repairs it, so the document is back to its
original text when the episode ends and the cycle can be replayed for as
long as a run lasts.  Many intermediate texts are syntactically invalid.

One op is one keystroke: apply it, ``Language.lex`` the new text, diff the
lexemes against the previous ones, and ``Language.reparse`` the previous
(checkpointed, tree-building) outcome over the changed token range.  Lexing
dominates the op, so this is the workload where the ISG scanner shows.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from . import common

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Episodes per document in one cycle (160 keystrokes).  SDF.sdf carries
#: three quarters of the keystrokes so that the p50 and tail ranks fall
#: inside its ops rather than on the boundary between the two documents'
#: lexing costs.  The tail rank lies among the dearest repair keystrokes
#: of the cycle, so a longer cycle spreads it over more edit sites and the
#: seed moves it less.
EPISODES = {"SDF.sdf": 48, "ASF.sdf": 16}

#: Episode mix, repeated per 8 episodes of a document:
#: ``ident`` inserts then deletes one capital inside a sort name (2 keys,
#: always valid); ``keyword`` deletes two letters of a keyword and retypes
#: them (4 keys, invalid in between); ``punct`` deletes one punctuation
#: token and retypes it (2 keys); ``join`` deletes the space between two
#: words and retypes it (2 keys).
MIX = ("ident", "ident", "ident", "keyword", "keyword", "punct", "punct", "join")

KEYWORDS = (
    "module", "begin", "lexical", "syntax", "sorts", "layout", "functions",
    "context-free", "priorities", "left-assoc", "right-assoc", "assoc",
    "exports", "imports", "equations", "variables",
)
PUNCT = ",(){}+*<>"

#: Tail percentile of the timed ops (see common.fast_repeats): about 3000
#: ops per 40 s run are 15 to 20 cycles, of which 1 (2 from 20 on) is kept
#: per position, and 160 timed ops leave 11 samples beyond it.
TAIL_PCT = 93.0
#: Every this many ops of the first cycle, the reparse outcome is kept and
#: compared with a fresh parse of the same input after the timed loop.
SAMPLE_EVERY = 16
#: Set-up samples per run, each about 60 ms (see common.SetupClock).
SETUP_REPEATS = 41

Keystroke = Tuple[int, int, str]  # (position, characters deleted, inserted)


def load_documents() -> Dict[str, str]:
    return {name: (INPUTS / name).read_text() for name in EPISODES}


def plain_mask(text: str) -> List[bool]:
    """Characters outside literals, character classes and comments."""
    mask = [True] * len(text)
    index = 0
    while index < len(text):
        char = text[index]
        closer = {"\"": "\"", "[": "]"}.get(char)
        if closer is not None:
            end = index + 1
            while end < len(text) and text[end] != closer:
                end += 2 if text[end] == "\\" else 1
            span = range(index, min(end + 1, len(text)))
        elif text.startswith("--", index):
            end = text.find("\n", index)
            span = range(index, end if end >= 0 else len(text))
        else:
            index += 1
            continue
        for position in span:
            mask[position] = False
        index = span.stop
    return mask


def _words(text: str, mask: List[bool]) -> List[Tuple[int, int]]:
    """``(start, end)`` of every plain word of letters, digits and ``-``."""
    words = []
    index = 0
    while index < len(text):
        if mask[index] and (text[index].isalnum()):
            end = index
            while end < len(text) and mask[end] and (text[end].isalnum() or text[end] == "-"):
                end += 1
            while text[end - 1] == "-":
                end -= 1
            words.append((index, end))
            index = end
        else:
            index += 1
    return words


def edit_sites(text: str) -> Dict[str, List[Any]]:
    mask = plain_mask(text)
    words = _words(text, mask)
    sites: Dict[str, List[Any]] = {"ident": [], "keyword": [], "punct": [], "join": []}
    for start, end in words:
        word = text[start:end]
        if word.isupper() and word[0].isalpha() and len(word) >= 3:
            sites["ident"].append((start, end))
        elif word in KEYWORDS and len(word) >= 5:
            sites["keyword"].append((start, end))
    for first, second in zip(words, words[1:]):
        if second[0] == first[1] + 1 and text[first[1]] == " ":
            sites["join"].append(first[1])
    for index, char in enumerate(text):
        if (
            mask[index]
            and char in PUNCT
            and text[index - 1] != "-"
            and not text.startswith("->", index)
        ):
            sites["punct"].append(index)
    return sites


def episode(kind: str, site: Any, text: str, rng: random.Random) -> List[Keystroke]:
    if kind == "ident":
        start, end = site
        at = rng.randrange(start + 1, end)
        return [(at, 0, rng.choice("ABCDEFGHKLMNPRSTUVWXYZ")), (at, 1, "")]
    if kind == "keyword":
        start, end = site
        at = rng.randrange(start + 1, end - 2)
        first, second = text[at], text[at + 1]
        return [(at + 1, 1, ""), (at, 1, ""), (at, 0, first), (at + 1, 0, second)]
    if kind == "punct":
        return [(site, 1, ""), (site, 0, text[site])]
    return [(site, 1, ""), (site, 0, " ")]


def generate(seed: int) -> List[Tuple[str, str, str, Keystroke]]:
    """One cycle of the session: ``(document, kind, op class, keystroke)``.

    The op class is ``repair`` for the last keystroke of a ``keyword``,
    ``punct`` or ``join`` episode, which makes the broken document whole
    again and re-parses it to where the parse converges (a quarter of the
    keystrokes, the dearest ones, which hold the tail rank), and ``edit``
    for every other keystroke, whose cost is mostly lexing (the p50 rank).
    Every episode restores its document, so positions are in the original
    text's coordinates.  Same seed, same session.
    """
    rng = random.Random(seed)
    documents = load_documents()
    episodes: List[Tuple[str, str, List[Keystroke]]] = []
    for name, count in EPISODES.items():
        text = documents[name]
        sites = edit_sites(text)
        for kind in sorted(set(MIX)):
            # Stratified over the document: the repair keystroke of an
            # episode re-parses from the edit to where the parse converges,
            # so spreading the m sites of a kind over m equal slices keeps
            # the cost mix, and with it the tail, alike from seed to seed.
            # A kind with fewer sites than m reuses a site (at another
            # letter, for a keyword).
            m = count * MIX.count(kind) // len(MIX)
            candidates = sites[kind]
            for slot in range(m):
                low = slot * len(candidates) // m
                chunk = candidates[low:(slot + 1) * len(candidates) // m] or candidates[low:low + 1]
                keys = episode(kind, rng.choice(chunk), text, rng)
                episodes.append((name, kind, keys))
    rng.shuffle(episodes)
    return [
        (name, kind, "repair" if kind != "ident" and step == len(keys) - 1 else "edit", key)
        for name, kind, keys in episodes
        for step, key in enumerate(keys)
    ]


def apply(text: str, key: Keystroke) -> str:
    position, deleted, inserted = key
    return text[:position] + inserted + text[position + deleted:]


def lexeme_diff(
    old: Sequence[Tuple[str, str]], new: Sequence[Tuple[str, str]]
) -> Tuple[int, int, int]:
    """``(start, old_end, new_end)`` of the changed lexeme range."""
    limit = min(len(old), len(new))
    start = 0
    while start < limit and old[start] == new[start]:
        start += 1
    old_end, new_end = len(old), len(new)
    while old_end > start and new_end > start and old[old_end - 1] == new[new_end - 1]:
        old_end -= 1
        new_end -= 1
    return start, old_end, new_end


def _keys(lexed: Any) -> List[Tuple[str, str]]:
    return [
        (terminal.name, lexeme.text)
        for terminal, lexeme in zip(lexed.terminals, lexed.lexemes)
    ]


class Editor:
    """The open documents: current text, lexeme keys and parse outcome."""

    def __init__(self, language: Any, documents: Dict[str, str]) -> None:
        self.language = language
        self.state: Dict[str, List[Any]] = {}
        for name, text in documents.items():
            lexed = language.lex(text)
            outcome = language.parse_lexed(lexed, checkpoint=True)
            self.state[name] = [text, _keys(lexed), outcome]

    def keystroke(self, name: str, key: Keystroke) -> Tuple[Any, Any]:
        """One op; returns (lexed input, reparse outcome)."""
        state = self.state[name]
        text = apply(state[0], key)
        lexed = self.language.lex(text)
        keys = _keys(lexed)
        start, old_end, new_end = lexeme_diff(state[1], keys)
        outcome = self.language.reparse(
            state[2], start, old_end, lexed.terminals[start:new_end]
        )
        state[0], state[1], state[2] = text, keys, outcome
        return lexed, outcome

    def close(self) -> None:
        self.language.close()


def open_editor() -> Editor:
    """The set-up an editor pays on open: build the language from SDF.sdf,
    then lex and parse (checkpointed) both documents."""
    from repro import Language

    documents = load_documents()
    return Editor(Language.from_sdf(documents["SDF.sdf"]), documents)


def prepare(seed: int) -> None:
    """The set-up helper's inputs (see common.SetupClock): none, opening
    the editor reads the documents."""
    return None


def setup(_prepared: None) -> Editor:
    """What set-up times: opening the editor."""
    return open_editor()


def run(seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    from repro.baselines.earley import EarleyParser

    script = generate(seed)
    editor = open_editor()
    setups = common.SetupClock("edit_sdf", seed, SETUP_REPEATS, seconds)
    language = editor.language

    tracer = common.Tracer()
    cycle = len(script)
    clock = common.OpClock(tracer, trace, cycle)
    latencies: List[float] = []
    classes: List[str] = []
    # Verdicts per distinct token sequence, so memory does not grow with
    # the number of ops (peak RSS is an end-to-end metric).
    verdicts: Dict[Tuple[str, ...], Dict[bool, int]] = {}
    samples: List[Tuple[Any, Any]] = []
    reuse: List[Dict[str, Any]] = []
    stats: List[Dict[str, int]] = []
    failed = 0
    chars = 0
    dfa_states = 0
    table_fraction = 0.0
    counters_before = common.language_counters([language])
    counters_cycle: Dict[str, int] = {}

    gc.collect()
    setups.start()
    deadline = time.perf_counter() + seconds
    op = 0
    try:
        while op < cycle or time.perf_counter() < deadline:
            name, _kind, label, key = script[op % cycle]
            clock.start(op)
            try:
                lexed, outcome = editor.keystroke(name, key)
            except Exception as error:  # noqa: BLE001 — a failed op is counted, not fatal
                lexed, outcome = None, None
                failed += 1
                print(f"perfbench: op {op} failed: {error!r}", file=sys.stderr)
            latencies.append(clock.stop())
            classes.append(label)
            if outcome is not None:
                if clock.tracing:
                    chars += len(lexed.text)
                seen = verdicts.setdefault(tuple(t.name for t in lexed.terminals), {})
                seen[outcome.accepted] = seen.get(outcome.accepted, 0) + 1
                if op < cycle:
                    if op % SAMPLE_EVERY == 0:
                        samples.append((lexed, outcome))
                    reuse.append(dict(outcome.reuse or {}))
                    stats.append(dict(outcome.stats or {}))
            op += 1
            if op == cycle:
                dfa_states = language.tokenizer.scanner.stats()["dfa_states"]
                table_fraction = language.table_fraction()
                counters_cycle = common.counter_deltas(
                    counters_before, common.language_counters([language])
                )
            setups.tick()
        setup_s = setups.finish()
    finally:
        clock.close()
        setups.close()
    rss = common.peak_rss_mb()

    # -- checks, outside the timed loop ------------------------------------
    from repro import Terminal

    earley = EarleyParser(language.grammar)
    checks_ok = True
    for terminals, seen in verdicts.items():
        expected = earley.recognize([Terminal(name) for name in terminals])
        wrong = seen.get(not expected, 0)
        if wrong:
            failed += wrong
            print(f"perfbench: {wrong} ops disagree with Earley", file=sys.stderr)
    engine_times: List[float] = []
    for lexed, outcome in samples:
        started = time.perf_counter()
        fresh = language.parse_lexed(lexed)
        engine_times.append(time.perf_counter() - started)
        same = fresh.accepted == outcome.accepted and (
            fresh.ambiguity == outcome.ambiguity
            and fresh.brackets(1) == outcome.brackets(1)
            if fresh.accepted
            else fresh.diagnostic.token_index == outcome.diagnostic.token_index
        )
        if not same:
            checks_ok = False
            print("perfbench: reparse differs from a fresh parse", file=sys.stderr)

    metrics, facts = common.end_to_end(
        setup_s, latencies, classes, cycle, failed, TAIL_PCT, rss
    )
    facts["distinct_inputs_checked"] = len(verdicts)
    if not trace:
        return common.result_line(len(latencies), failed, checks_ok, metrics), facts

    # -- per-layer metrics from the traced ops -----------------------------
    self_ms = tracer.mean_self_ms()
    lex_total = sum(tracer.durations("lex").values())
    resumed = sum(1 for entry in reuse if entry and not entry.get("fallback"))
    reused = sum(entry.get("reused_prefix") or 0 for entry in reuse)
    total = sum(entry.get("total_tokens") or 0 for entry in reuse)
    hits = counters_cycle.get("action_cache_hits", 0)
    misses = counters_cycle.get("action_cache_misses", 0)
    values = {
        "lexing.lex_ms": self_ms.get("lex", 0.0),
        "lexing.chars_per_s": chars / lex_total,
        "lexing.dfa_states": dfa_states,
        "runtime.reparse_ms": self_ms.get("reparse", 0.0),
        "runtime.reparse_resumed_frac": resumed / len(reuse),
        "runtime.reparse_reused_frac": reused / total if total else 0.0,
        "core.expansions_per_op": counters_cycle.get("expansions", 0) / cycle,
        "core.closure_items_per_op": counters_cycle.get("closure_items", 0) / cycle,
        "core.states_removed_per_op": counters_cycle.get("states_removed", 0) / cycle,
        "core.table_fraction": table_fraction,
        "lr.action_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.engine_ms": sum(engine_times) / len(engine_times) * 1e3,
        "runtime.forks_per_op": sum(s.get("forks", 0) for s in stats) / cycle,
        "runtime.shifts_per_op": sum(s.get("shifts", 0) for s in stats) / cycle,
        "unattributed_ms": self_ms.get("op", 0.0),
        "trace.overhead_frac": clock.overhead,
    }
    facts["layer_self_ms"] = self_ms
    facts["op_wall_ms"] = clock.traced_wall_ms
    tracer.dump(common.WORK_DIR / f"spans-edit-sdf-{seed}.jsonl")
    return common.result_line(len(latencies), failed, checks_ok, common.layer_metrics(values)), facts

