"""Seeded scenario generators for the three benchmark workloads.

Kept apart from ``unimas.fuzz.generate`` on purpose: a change to the
``fuzz`` command must not shift the benchmark's inputs.  Each generator is
a pure function of its seed and returns a ``Workload``: the scenario text
the program receives, the run configuration, and the facts the generator
knows about its own inputs (which the checks compare against).

Inputs are chosen so that no command can meet a referential fault (a
``failure`` reply).  Commands on different relay paths may reach the store
in another order than they were sent, so an entity (student, teacher,
program, class, admission) is referenced only ``LAG`` commands after the
command that created it.  The gateway sends at most one request per
round, so once every reply arrives within ``LAG`` rounds, which the
checks confirm, the creator has been applied before the reference leaves
the gateway.  Commands on one path stay first in, first out, so ids and
duplicate refusals follow the generation order exactly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from unimas.config import RunConfig

LAG = 64

REPORT_KINDS = (
    "graduates_per_year",
    "admissions_per_year",
    "attendance",
    "teacher_student_ratio",
    "lab_student_ratio",
)
SUBJECTS = ("Math", "Physics", "Programming", "Databases", "Networks", "Logic")
DATES = tuple(f"2025-05-{day:02d}" for day in range(1, 6))
YEARS = (2023, 2024, 2025, 2026)
DEPT = "CS"


@dataclass
class Workload:
    name: str
    seed: int
    cfg: RunConfig
    text: str
    commands: int
    # generator-side facts, keyed by what the checks need
    st_ids: set[str] = field(default_factory=set)
    lecture_totals: dict[int, int] = field(default_factory=dict)
    final_reports: dict[str, int] = field(default_factory=dict)  # kind -> command index


class Dealer:
    """Draws that come up in fixed proportions whatever the seed.

    Each ``deal`` takes the next card of a shuffled deck holding ``cards``
    and shuffles a fresh deck in when it runs out.  The seed orders the
    cards but cannot change how often each comes up, so the amount of work
    of a workload (how many reports of each kind, duplicates, refusals)
    does not depend on it and only the order and the values do.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decks: dict[object, list] = {}

    def _refill(self, key: object, cards: tuple) -> list:
        deck = self.decks.setdefault(key, [])
        fresh = list(cards)
        self.rng.shuffle(fresh)
        deck[:0] = fresh  # under what is left, which is dealt first
        return deck

    def deal(self, key: object, cards: tuple) -> object:
        deck = self.decks.get(key) or self._refill(key, cards)
        return deck.pop()

    def chance(self, key: str, hits: int, out_of: int) -> bool:
        """True ``hits`` times in every ``out_of`` deals."""
        return self.deal((key, hits, out_of), (True,) * hits + (False,) * (out_of - hits))

    def deal_first(self, key: object, cards: tuple, usable) -> object:
        """The top card for which ``usable`` holds, a fresh deck shuffled in
        if none does; ``cards`` must hold one that is always usable."""
        for _ in range(2):
            deck = self.decks.get(key) or self._refill(key, cards)
            for i in range(len(deck) - 1, -1, -1):
                if usable(deck[i]):
                    return deck.pop(i)
            self._refill(key, cards)
        raise ValueError(f"no usable card in {key!r}")


class _Registry:
    """Shadow of the entities one term creates, with referencing lag."""

    def __init__(self, rng: random.Random, cfg: RunConfig) -> None:
        self.rng = rng
        self.dealer = Dealer(rng)
        self.cfg = cfg
        self.lines: list[str] = []
        self._maturing: deque[tuple[int, str, object]] = deque()
        # referable entities; "student" holds the ones not admitted yet
        self.ready: dict[str, list] = {
            "program": [], "teacher": [], "student": [], "admitted": [], "class": []
        }
        self.st_ids: list[str] = []
        self.next_id = {"student": 1, "teacher": 1, "program": 1, "class": 1}
        self.semesters: dict[int, int] = {}  # p_id -> semester count
        self.classes: dict[int, tuple[int, int, str, int, int]] = {}
        self.slots: set[tuple[int, int, int, int]] = set()
        self.lectures: dict[int, int] = {}
        self.sessions = 0

    # -- bookkeeping -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)
        now = len(self.lines)
        while self._maturing and self._maturing[0][0] <= now:
            _, pool, value = self._maturing.popleft()
            self.ready[pool].append(value)

    def _mature(self, pool: str, value: object) -> None:
        self._maturing.append((len(self.lines) + LAG, pool, value))

    def _new_id(self, kind: str) -> int:
        n = self.next_id[kind]
        self.next_id[kind] += 1
        return n

    def can(self, verb: str) -> bool:
        r = self.ready
        return {
            "REGISTER_STUDENT": True,
            "REGISTER_TEACHER": True,
            "ADD_PROGRAM": True,
            "OPEN_SESSION": self.sessions < self.cfg.cap,
            "GENERATE_REPORT": True,
            "ADMIT": bool(r["program"] and (r["student"] or r["admitted"])),
            "ADD_CLASS": bool(r["program"]),
            "ASSIGN_TEACHER": bool(r["class"] and r["teacher"]),
            "DELIVER_LECTURE": bool(r["class"]),
            "SCHEDULE_EXAM": bool(r["class"]),
            "RECORD_RESULT": bool(r["class"] and r["admitted"]),
        }[verb]

    # -- commands ------------------------------------------------------------

    def open_session(self) -> None:
        self.sessions += 1
        self.emit(f"OPEN_SESSION dept={DEPT}")

    def register_student(self, duplicates: tuple[int, int] = (3, 10)) -> None:
        rng = self.rng
        if self.st_ids and self.dealer.chance("duplicate student", *duplicates):
            st_id = rng.choice(self.st_ids)  # refused: same path, so always after the original
        else:
            st_id = f"3520{len(self.st_ids) + 1:09d}"
            self.st_ids.append(st_id)
            self._mature("student", self._new_id("student"))
        self.emit(f"REGISTER_STUDENT st_id={st_id} name=S{len(self.lines)} dept={DEPT}")

    def register_teacher(self) -> None:
        n = self._new_id("teacher")
        self._mature("teacher", n)
        designation = self.rng.choice(("lecturer", "professor"))
        self.emit(
            f"REGISTER_TEACHER name=T{n} designation={designation} "
            f"contact=0300{n:07d} email=t{n}@uni.edu"
        )

    def add_program(self, semesters: int | None = None) -> None:
        rng = self.rng
        p_id = self._new_id("program")
        self.semesters[p_id] = semesters or self.dealer.deal("semesters", (2, 4, 8))
        self._mature("program", p_id)
        self.emit(
            f"ADD_PROGRAM name=prog{p_id} session={rng.choice(('morning', 'evening'))} "
            f"semesters={self.semesters[p_id]} fee={rng.randrange(1000, 9000, 500)}"
        )

    def admit(self, duplicates: tuple[int, int] = (1, 4)) -> None:
        rng = self.rng
        p_id = rng.choice(self.ready["program"])
        fresh = self.ready["student"]
        duplicate = self.dealer.chance("duplicate admission", *duplicates)
        if self.ready["admitted"] and (not fresh or duplicate):
            student, _ = rng.choice(self.ready["admitted"])  # refused: duplicate admission
        else:
            student = fresh.pop(rng.randrange(len(fresh)))
            self._mature("admitted", (student, p_id))
        self.emit(f"ADMIT student_id={student} p_id={p_id} year={rng.choice(YEARS)}")

    def add_class(self, p_id: int | None = None, semester: int | None = None) -> None:
        """A class; without a cohort given, one in five aims at an occupied slot."""
        rng = self.rng
        if p_id is not None:
            free = [
                (d, p) for d in range(5) for p in range(8) if (p_id, semester, d, p) not in self.slots
            ]
            day, period = rng.choice(free)
        elif self.dealer.chance("taken slot", 1, 5) and self.classes:
            p_id, semester, _, day, period = self.classes[rng.choice(sorted(self.classes))]
        else:
            p_id = rng.choice(self.ready["program"])
            semester = rng.randint(1, self.semesters[p_id])
            day, period = rng.randint(0, 4), rng.randint(0, 7)
        subject = rng.choice(SUBJECTS)
        if (p_id, semester, day, period) not in self.slots:  # else refused: same timing
            self.slots.add((p_id, semester, day, period))
            class_id = self._new_id("class")
            self.classes[class_id] = (p_id, semester, subject, day, period)
            self.lectures[class_id] = 0
            self._mature("class", class_id)
        self.emit(
            f"ADD_CLASS p_id={p_id} semester={semester} subject={subject} day={day} period={period}"
        )

    def assign_teacher(self) -> None:
        class_id = self.rng.choice(self.ready["class"])
        teacher_id = self.rng.choice(self.ready["teacher"])
        self.emit(f"ASSIGN_TEACHER class_id={class_id} teacher_id={teacher_id}")

    def deliver_lecture(self, class_id: int | None = None, target: int | None = None) -> None:
        rng = self.rng
        if class_id is None:
            class_id = rng.choice(self.ready["class"])
        current = self.lectures[class_id]
        if target is None:
            cfg = self.cfg
            target = self.dealer.deal(
                "lecture target",
                (
                    cfg.min_lectures_mid - 1,
                    cfg.min_lectures_mid,
                    cfg.min_lectures_final - 1,
                    cfg.min_lectures_final,
                ),
            )
        times = target - current if current < target else rng.randint(1, 3)
        self.lectures[class_id] = current + times
        subject = self.classes[class_id][2]
        self.emit(f"DELIVER_LECTURE class_id={class_id} subject={subject} times={times}")

    def schedule_exam(self) -> None:
        rng = self.rng
        class_id = rng.choice(self.ready["class"])
        self.emit(
            f"SCHEDULE_EXAM term={rng.choice(('mid', 'final'))} class_id={class_id} "
            f"subject={self.classes[class_id][2]} date={rng.choice(DATES)}"
        )

    def record_result(
        self, student: int | None = None, class_id: int | None = None, marks: int | None = None
    ) -> None:
        """A result; unless marks are given, they sit on and around the bounds."""
        rng = self.rng
        if student is None:
            student, _ = rng.choice(self.ready["admitted"])
        if class_id is None:
            class_id = rng.choice(self.ready["class"])
        subject = self.classes[class_id][2]
        lo, hi = self.cfg.marks_bounds(subject)
        if marks is None:
            marks = self.dealer.deal(
                f"marks {subject}", (lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1)
            )
        self.emit(
            f"RECORD_RESULT student_id={student} class_id={class_id} subject={subject} "
            f"marks={marks} year={rng.choice(YEARS)}"
        )

    def report(self, kind: str | None = None) -> None:
        self.emit(f"GENERATE_REPORT kind={kind or self.dealer.deal('report', REPORT_KINDS)}")

    # -- mixes ---------------------------------------------------------------

    def mixed(self, weights: tuple[tuple[str, int], ...]) -> None:
        """The next command of a deck holding each verb as often as its
        weight, skipping the verbs whose inputs are not ready yet (those
        come up later); REGISTER_STUDENT is always ready."""
        cards = tuple(verb for verb, w in weights for _ in range(w))
        verb = self.dealer.deal_first(weights, cards, self.can)
        getattr(self, _METHODS[verb])()

    def workload(self, name: str, seed: int, cfg: RunConfig) -> Workload:
        return Workload(
            name=name,
            seed=seed,
            cfg=cfg,
            text="\n".join(self.lines) + "\n",
            commands=len(self.lines),
            st_ids=set(self.st_ids),
            lecture_totals=dict(self.lectures),
        )


_METHODS = {
    "REGISTER_STUDENT": "register_student",
    "REGISTER_TEACHER": "register_teacher",
    "ADD_PROGRAM": "add_program",
    "OPEN_SESSION": "open_session",
    "GENERATE_REPORT": "report",
    "ADMIT": "admit",
    "ADD_CLASS": "add_class",
    "ASSIGN_TEACHER": "assign_teacher",
    "DELIVER_LECTURE": "deliver_lecture",
    "SCHEDULE_EXAM": "schedule_exam",
    "RECORD_RESULT": "record_result",
}

#: term_mix: writes of every kind, about 1% reports and 1% session opens.
TERM_WEIGHTS = (
    ("REGISTER_STUDENT", 18),
    ("ADMIT", 12),
    ("REGISTER_TEACHER", 6),
    ("ADD_PROGRAM", 2),
    ("ADD_CLASS", 12),
    ("ASSIGN_TEACHER", 8),
    ("DELIVER_LECTURE", 14),
    ("SCHEDULE_EXAM", 10),
    ("RECORD_RESULT", 12),
    ("GENERATE_REPORT", 1),
    ("OPEN_SESSION", 1),
)

TERM_MIX_COMMANDS = 4000
TERM_MIX_WINDOW = 8


def term_mix(seed: int) -> Workload:
    cfg = RunConfig(seed=seed, pipeline_window=TERM_MIX_WINDOW)
    reg = _Registry(random.Random(f"term_mix:{seed}"), cfg)
    reg.open_session()
    while len(reg.lines) < TERM_MIX_COMMANDS:
        reg.mixed(TERM_WEIGHTS)
    return reg.workload("term_mix", seed, cfg)


#: report_heavy: the registry built first, then reads interleaved with writes.
#: Every count is fixed, so the amount of work does not depend on the seed.
REGISTRY_PROGRAMS = 6
REGISTRY_TEACHERS = 30
REGISTRY_STUDENTS = 500
REGISTRY_DUPLICATE_EVERY = 25
REGISTRY_CLASSES_PER_PROGRAM = 6
GRADUATE_EVERY = 3
MIXED_COMMANDS = 1000
REPORT_HEAVY_WINDOW = 8
#: writes of the mixed phase: no new programs or classes, so graduates stay
REPORT_HEAVY_WRITES = tuple(
    (verb, w)
    for verb, w in TERM_WEIGHTS
    if verb not in ("ADD_PROGRAM", "ADD_CLASS", "GENERATE_REPORT", "OPEN_SESSION")
)


def report_heavy(seed: int) -> Workload:
    cfg = RunConfig(seed=seed, pipeline_window=REPORT_HEAVY_WINDOW)
    rng = random.Random(f"report_heavy:{seed}")
    reg = _Registry(rng, cfg)
    # the registry: each step comes more than LAG commands after what it needs
    reg.open_session()
    for _ in range(REGISTRY_PROGRAMS):
        reg.add_program(semesters=rng.choice((2, 4)))
    for _ in range(REGISTRY_TEACHERS):
        reg.register_teacher()
    for i in range(REGISTRY_STUDENTS):
        duplicate = i % REGISTRY_DUPLICATE_EVERY == REGISTRY_DUPLICATE_EVERY - 1
        reg.register_student(duplicates=(1, 1) if duplicate else (0, 1))
    for p_id in sorted(reg.semesters):
        last = reg.semesters[p_id]
        for k in range(REGISTRY_CLASSES_PER_PROGRAM):
            reg.add_class(p_id, last if k % 2 == 0 else rng.randint(1, last - 1))
    while reg.ready["student"]:
        reg.admit(duplicates=(0, 1))
    for class_id in sorted(reg.classes):
        reg.deliver_lecture(class_id, target=cfg.min_lectures_final)
    # passing final-semester results for every GRADUATE_EVERY-th student,
    # so that graduates_per_year has rows
    finals: dict[int, list[int]] = {}
    for class_id, (p_id, semester, *_) in sorted(reg.classes.items()):
        if semester == reg.semesters[p_id]:
            finals.setdefault(p_id, []).append(class_id)
    for j, (student, p_id) in enumerate(sorted(reg.ready["admitted"])):
        if j % GRADUATE_EVERY == 0:
            for class_id in finals[p_id]:
                reg.record_result(student, class_id, marks=cfg.max_marks)
    for i in range(MIXED_COMMANDS):
        if i % 2 == 0:
            reg.report(REPORT_KINDS[i // 2 % len(REPORT_KINDS)])
        else:
            reg.mixed(REPORT_HEAVY_WRITES)
    # drain point: LAG reads, then the final report of each kind
    for i in range(LAG):
        reg.report(REPORT_KINDS[i % len(REPORT_KINDS)])
    final_reports = {}
    for kind in REPORT_KINDS:
        final_reports[kind] = len(reg.lines)
        reg.report(kind)
    work = reg.workload("report_heavy", seed, cfg)
    work.final_reports = final_reports
    return work


#: session_rush: waves of opens and closes against a small capacity.
SESSION_COMMANDS = 4000
SESSION_CAP = 48
SESSION_WINDOW = 38
SESSION_WAVE = 250
SESSION_REPORT_EVERY = 500


def session_rush(seed: int) -> Workload:
    """Opens and closes of client sessions, in waves that reach the cap.

    The first session is an anchor that stays open, so the few reports
    (one every SESSION_REPORT_EVERY commands) always pass the gateway's
    open-session gate.  Closes name only sessions that are open at that
    point of the first-in, first-out order.
    """
    cfg = RunConfig(seed=seed, cap=SESSION_CAP, pipeline_window=SESSION_WINDOW)
    rng = random.Random(f"session_rush:{seed}")
    dealer = Dealer(rng)
    lines = [f"OPEN_SESSION dept={DEPT}"]
    open_sids: list[int] = []
    next_sid = 2
    while len(lines) < SESSION_COMMANDS:
        i = len(lines)
        if i % SESSION_REPORT_EVERY == 0:
            lines.append(f"GENERATE_REPORT kind={REPORT_KINDS[(i // SESSION_REPORT_EVERY) % 5]}")
            continue
        rushing = (i // SESSION_WAVE) % 2 == 0
        opening = dealer.chance("rush", 3, 4) if rushing else dealer.chance("calm", 7, 20)
        if open_sids and not opening:
            sid = open_sids.pop(rng.randrange(len(open_sids)))
            lines.append(f"CLOSE_SESSION sid={sid}")
        else:
            lines.append(f"OPEN_SESSION dept={DEPT}")
            if len(open_sids) + 1 < cfg.cap:  # the anchor holds one seat
                open_sids.append(next_sid)
                next_sid += 1
    return Workload(
        name="session_rush",
        seed=seed,
        cfg=cfg,
        text="\n".join(lines) + "\n",
        commands=len(lines),
    )


WORKLOADS = {"term_mix": term_mix, "report_heavy": report_heavy, "session_rush": session_rush}
