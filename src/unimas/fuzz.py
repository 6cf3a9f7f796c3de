"""Model-based scenario generator.

Keeps a shadow model of the store so generated commands are plausible, and
aims squarely at the boundaries: duplicate ids, occupied slots, lecture
counts landing on 15/16/31/32, marks at the bound and one past it.  The
stream is a pure function of (seed, n_events, config); running it with the
monitor on and no fault injection must never produce a violation, because
every hostile command is one the system is supposed to refuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dc_replace

from .agents import REPORT_KINDS, check_liveness_k
from .config import RunConfig, with_fixed_window
from .scenario import ScenarioCommand, RunResult, run_scenario

# Boundary-pressure tuning constants (harness behavior, not domain claims).
DUPLICATE_ID_BIAS = 0.30
SLOT_PRESSURE_BIAS = 0.20
REPORT_WEIGHT = 1
FORCED_DUPLICATE_ADMIT_EVERY = 200

_WEIGHTED_VERBS = (
    ("REGISTER_STUDENT", 18),
    ("ADMIT", 12),
    ("REGISTER_TEACHER", 8),
    ("ADD_PROGRAM", 4),
    ("ADD_CLASS", 12),
    ("ASSIGN_TEACHER", 8),
    ("DELIVER_LECTURE", 14),
    ("SCHEDULE_EXAM", 10),
    ("RECORD_RESULT", 12),
    ("GENERATE_REPORT", REPORT_WEIGHT),
    ("OPEN_SESSION", 1),
)

_SUBJECTS = ("Math", "Physics", "Programming", "Databases", "Networks", "Logic")
_DATES = tuple(f"2025-05-{day:02d}" for day in range(1, 6))


@dataclass
class _Model:
    """Shadow of the store, tracking only what generation needs.

    Ids of each kind run from 1 without gaps and are never deleted, so each
    kind keeps one count: an int, or the length of its list of facts by
    id - 1.  A pick among them is ``rng.randint(1, count)``.
    """

    students: int = 0  # registered; student <id> has st_id C<id>
    fresh: list[int] = field(default_factory=list)  # registered, not yet admitted
    admitted: list[int] = field(default_factory=list)
    teachers: int = 0
    programs: list[int] = field(default_factory=list)  # semesters
    classes: list[tuple[int, int, str, int, int]] = field(default_factory=list)
    lectures: list[int] = field(default_factory=list)


def generate(seed: int, n_events: int, cfg: RunConfig | None = None) -> list[ScenarioCommand]:
    """Deterministic stream of n_events scenario commands."""
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    cfg = cfg or RunConfig()
    rng = random.Random(seed)
    model = _Model()
    out: list[ScenarioCommand] = []
    pairs: dict[tuple[str, object], tuple[str, str]] = {}  # equal args share one pair

    def _cmd(verb: str, **kv: object) -> ScenarioCommand:
        return ScenarioCommand(
            verb, tuple(pairs.get(a) or pairs.setdefault(a, (a[0], str(a[1]))) for a in kv.items())
        )

    def register_student() -> ScenarioCommand:
        if model.students and rng.random() < DUPLICATE_ID_BIAS:
            st_id = f"C{rng.randint(1, model.students):05d}"  # duplicate pressure
        else:
            model.students += 1
            model.fresh.append(model.students)
            st_id = f"C{model.students:05d}"
        return _cmd("REGISTER_STUDENT", st_id=st_id, name=f"S_{st_id}", dept=cfg.cs_roster[0])

    def admit(force_duplicate: bool = False) -> ScenarioCommand:
        p_id = rng.randint(1, len(model.programs))
        if model.admitted and (
            force_duplicate or rng.random() < DUPLICATE_ID_BIAS or not model.fresh
        ):
            student = rng.choice(model.admitted)
        else:
            student = model.fresh.pop(rng.randrange(len(model.fresh)))
            model.admitted.append(student)
        return _cmd("ADMIT", student_id=student, p_id=p_id, year=rng.randint(2023, 2026))

    def add_program() -> ScenarioCommand:
        semesters = rng.choice((2, 4, 8))
        model.programs.append(semesters)
        return _cmd(
            "ADD_PROGRAM",
            name=f"prog_{len(model.programs)}",
            session=rng.choice(("morning", "evening")),
            semesters=semesters,
            fee=rng.randrange(1000, 9000, 500),
        )

    slots: set[tuple[int, int, int, int]] = set()

    def add_class() -> ScenarioCommand:
        p_id = rng.randint(1, len(model.programs))
        semester = rng.randint(1, model.programs[p_id - 1])
        if model.classes and rng.random() < SLOT_PRESSURE_BIAS:
            # aim at an occupied slot of the same cohort
            p_id, semester, _, day, period = rng.choice(model.classes)
        else:
            day, period = rng.randint(0, 4), rng.randint(0, 7)
        subject = rng.choice(_SUBJECTS)
        if (p_id, semester, day, period) not in slots:
            model.classes.append((p_id, semester, subject, day, period))
            model.lectures.append(0)
            slots.add((p_id, semester, day, period))
        return _cmd(
            "ADD_CLASS", p_id=p_id, semester=semester, subject=subject, day=day, period=period
        )

    def pick_class() -> tuple[int, str]:
        """A class id and its subject."""
        class_id = rng.randint(1, len(model.classes))
        return class_id, model.classes[class_id - 1][2]

    def assign_teacher() -> ScenarioCommand:
        class_id, _ = pick_class()
        return _cmd("ASSIGN_TEACHER", class_id=class_id, teacher_id=rng.randint(1, model.teachers))

    def deliver_lecture() -> ScenarioCommand:
        class_id, subject = pick_class()
        current = model.lectures[class_id - 1]
        boundary = rng.choice(
            (
                cfg.min_lectures_mid - 1,
                cfg.min_lectures_mid,
                cfg.min_lectures_final - 1,
                cfg.min_lectures_final,
            )
        )
        times = boundary - current if current < boundary else rng.randint(1, 3)
        model.lectures[class_id - 1] = current + times
        return _cmd("DELIVER_LECTURE", class_id=class_id, subject=subject, times=times)

    def schedule_exam() -> ScenarioCommand:
        class_id, subject = pick_class()
        return _cmd(
            "SCHEDULE_EXAM",
            term=rng.choice(("mid", "final")),
            class_id=class_id,
            subject=subject,
            date=rng.choice(_DATES),
        )

    def record_result() -> ScenarioCommand:
        class_id, subject = pick_class()
        lo, hi = cfg.marks_bounds(subject)
        marks = rng.choice((lo - 1, lo, lo + 1, (lo + hi) // 2, hi - 1, hi, hi + 1))
        student = rng.choice(model.admitted or range(1, model.students + 1))
        return _cmd(
            "RECORD_RESULT",
            student_id=student,
            class_id=class_id,
            subject=subject,
            marks=marks,
            year=rng.randint(2023, 2026),
        )

    def register_teacher() -> ScenarioCommand:
        model.teachers += 1
        n = model.teachers
        return _cmd(
            "REGISTER_TEACHER",
            name=f"T_{n}",
            designation=rng.choice(("lecturer", "professor")),
            contact=f"0300{n:07d}",
            email=f"t{n}@uni.edu",
        )

    # fixed prelude so every verb's preconditions are satisfiable early
    out.append(_cmd("OPEN_SESSION", dept=cfg.cs_roster[0]))
    out.append(add_program())
    out.append(register_teacher())
    out.append(register_student())
    out.append(register_student())
    out.append(admit())
    out.append(add_class())

    verbs, weights = zip(*_WEIGHTED_VERBS)
    while len(out) < n_events:
        if len(out) % FORCED_DUPLICATE_ADMIT_EVERY == 0 and model.admitted:
            out.append(admit(force_duplicate=True))
            continue
        verb = rng.choices(verbs, weights=weights, k=1)[0]
        if verb == "REGISTER_STUDENT":
            out.append(register_student())
        elif verb == "ADMIT":
            out.append(admit())
        elif verb == "REGISTER_TEACHER":
            out.append(register_teacher())
        elif verb == "ADD_PROGRAM":
            out.append(add_program())
        elif verb == "ADD_CLASS":
            out.append(add_class())
        elif verb == "ASSIGN_TEACHER" and model.teachers and model.classes:
            out.append(assign_teacher())
        elif verb == "DELIVER_LECTURE" and model.classes:
            out.append(deliver_lecture())
        elif verb == "SCHEDULE_EXAM" and model.classes:
            out.append(schedule_exam())
        elif verb == "RECORD_RESULT" and model.classes and model.students:
            out.append(record_result())
        elif verb == "GENERATE_REPORT":
            out.append(_cmd("GENERATE_REPORT", kind=rng.choice(REPORT_KINDS)))
        elif verb == "OPEN_SESSION":
            out.append(_cmd("OPEN_SESSION", dept=cfg.cs_roster[0]))
    return out[:n_events]


def fuzz_config(seed: int, cfg: RunConfig | None = None) -> RunConfig:
    """``cfg`` as a fuzz run uses it: at window 8 and this seed.  A
    configuration the run could not serve is a ``ConfigError``."""
    cfg = dc_replace(with_fixed_window(cfg or RunConfig(), 8, "fuzz"), seed=seed)
    check_liveness_k(cfg)
    return cfg


def fuzz(seed: int, n_events: int, cfg: RunConfig | None = None) -> RunResult:
    """Generate and run one fuzz stream with the monitor on, at window 8."""
    cfg = fuzz_config(seed, cfg)
    return run_scenario(generate(seed, n_events, cfg), cfg)
