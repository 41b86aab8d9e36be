"""Catalog loading, label completeness, fault detection, determinism, and the
two-process job runner."""

import os
import select
import time

import pytest

from lieschouten import catalog as catalog_module
from lieschouten import soliton
from lieschouten.algebras import FAMILY_IDS, build_family, point_values, sample_parameters
from lieschouten.catalog import (
    MATRIX_LABELS,
    Catalog,
    CatalogError,
    VerifyRecord,
    load_catalog,
    verify_all,
)
from lieschouten.geometry import CONNECTION_KINDS, connection, ricci_pipeline
from lieschouten.poly import DEFAULT_TABLE, exact_sqrt
from lieschouten.soliton import soliton_system

# the documented set of claims whose stated form is internally inconsistent
SUSPECT_CASES = {"3.3.8", "3.3.11", "3.3.12", "3.4.1", "3.5.1", "3.5.2", "4.6.1", "4.11.1"}
SUSPECT_SCALARS = {"g4-lc"}

THEOREM_GROUPS = (
    ["3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7"]
    + [f"4.{n}" for n in range(1, 15)]
)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return load_catalog()


@pytest.fixture(scope="module")
def summary(catalog):
    # a moderate scan size keeps this module quick; the acceptance suite
    # re-runs the battery at full scale
    return verify_all(seed=0, scan_count=40, catalog=catalog)


class TestLoading:
    def test_counts(self, catalog):
        assert len(catalog.matrices) >= 20
        assert len(catalog.scalars) >= 16
        assert len(catalog.cases) >= 40

    def test_matrix_label_set_is_exactly_the_catalogued_one(self, catalog):
        assert {m.label for m in catalog.matrices} == set(MATRIX_LABELS)

    def test_every_theorem_contributes_a_case(self, catalog):
        prefixes = {c.label.rsplit(".", 1)[0] for c in catalog.cases}
        assert prefixes == set(THEOREM_GROUPS)

    def test_no_solutions_entry_present(self, catalog):
        case = catalog.case("4.8.1")
        assert case.empty and case.family_id == "g4" and case.kind == "kn"

    def test_auxiliaries_eliminated(self, catalog):
        for fixture in catalog.matrices:
            for row in fixture.entries:
                for entry in row:
                    assert not (entry.variables() & {"a1", "a2", "a3", "b1", "b2", "b3"})

    def test_first_row_of_g1_fixture(self, catalog):
        fixture = catalog.matrix("3.9")
        assert [str(q) for q in fixture.entries[0]] == [
            "1/2*beta^2",
            "alpha*beta",
            "alpha*beta",
        ]

    def test_zero_matrix_fixture(self, catalog):
        fixture = catalog.matrix("4.48")
        assert all(q.is_zero for row in fixture.entries for q in row)

    def test_stored_kn_forms_agree_after_expansion(self, catalog):
        m_def = catalog.matrix("4.44")
        m_flat = catalog.matrix("4.45")
        assert m_def.entries == m_flat.entries

    def test_parse_failure_names_label(self):
        bad = "[matrix 9.9]\nfamily = g1\nkind = lc\nrow1 = alpha +, 0, 0\nrow2 = 0,0,0\nrow3 = 0,0,0\n"
        with pytest.raises(CatalogError) as err:
            load_catalog(text=bad)
        assert "9.9" in str(err.value)

    def test_unknown_name_in_fixture_rejected(self):
        bad = "[scalar x]\nfamily = g1\nkind = lc\nexpr = zeta^2\n"
        with pytest.raises(CatalogError) as err:
            load_catalog(text=bad)
        assert "zeta" in str(err.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("defs = a1 = alpha", "[x] defs entry 'a1 = alpha' lacks ':='"),
            ("subs = beta := 0; gamma 0", "[case x] assignment 'gamma 0' lacks ':='"),
            ("reduce = beta^2 alpha", "[case x] reduction 'beta^2 alpha' lacks ':='"),
            # an entry's errors come in list order, before a later entry's
            ("subs = beta := alpha +; gamma 0", "[case x] cannot parse ' alpha +'"),
            ("reduce = beta := alpha; gamma^2 0", "[case x] reduction lhs 'beta' must be var^2"),
        ],
        ids=["defs", "assignment", "reduction", "parse-first", "lhs-first"],
    )
    def test_assignment_list_errors_name_the_entry(self, line, message):
        with pytest.raises(CatalogError) as err:
            load_catalog(text=f"[case x]\nfamily = g1\nkind = lc\nc = 0\n{line}\n")
        assert str(err.value).startswith(message)

    def test_irrational_witness_is_an_exact_root(self, catalog):
        # 4.11.2's locus beta^2 = 2*alpha^2 is witnessed by beta = sqrt(2), exactly
        witness = dict(catalog.case("4.11.2").witness)
        assert witness["beta"] == exact_sqrt(2) and witness["beta"] ** 2 == 2
        case = "[case x]\nfamily = g6\nkind = canonical\nc = 0\nwitness = alpha = 1, beta = {}\n"
        for bad in ("sqrt(-2)", "sqrt(alpha)", "sqrt(1/0)"):
            with pytest.raises(CatalogError, match=r"^\[case x\] witness .* is not the square root"):
                load_catalog(text=case.format(bad))

    def test_suspect_flags_match_documentation(self, catalog):
        assert {c.label for c in catalog.cases if c.suspect} == SUSPECT_CASES
        assert {s.label for s in catalog.scalars if s.suspect} == SUSPECT_SCALARS


class TestVerifyAll:
    def test_no_failures(self, summary):
        assert summary.ok, [f"{r.section} {r.label}: {r.detail}" for r in summary.failed]

    def test_warnings_are_exactly_the_suspects(self, summary):
        warned = {(r.section, r.label) for r in summary.warned}
        expected = {("case", label) for label in SUSPECT_CASES} | {
            ("scalar", label) for label in SUSPECT_SCALARS
        }
        assert warned == expected

    def test_every_nonsuspect_case_exact_or_reduced(self, summary):
        for r in summary.records:
            if r.section == "case" and r.status == "pass":
                assert r.method in ("exact", "reduced", "scan-empty")

    def test_suspect_warnings_carry_evidence(self, summary):
        for r in summary.warned:
            if r.section == "case":
                assert "variant" in r.detail or "counterexample" in r.detail or "c free" in r.detail or "every c" in r.detail

    def test_matrix_fidelity_all_pass(self, summary):
        matrix_records = [r for r in summary.records if r.section == "matrix"]
        assert len(matrix_records) == len(MATRIX_LABELS) + 1  # + the 4.44=4.45 check
        assert all(r.status == "pass" for r in matrix_records)

    def test_controls_pass_or_skip_only_on_free_c(self, summary, catalog):
        for r in summary.records:
            if r.section != "control":
                continue
            if r.status == "skip":
                case = catalog.case(r.label)
                _, c_expr, _ = case.effective()
                assert case.empty or c_expr is None
            else:
                assert r.status == "pass"

    def test_injected_matrix_fault_detected(self, catalog):
        text = load_catalog_text_patched()
        patched = load_catalog(text=text)
        summary = verify_all(seed=0, scan_count=1, only="matrix", catalog=patched)
        failed = summary.failed
        assert len(failed) == 1 and failed[0].label == "3.9"

    def test_deterministic_for_fixed_seed(self, catalog):
        a = verify_all(seed=0, scan_count=25, catalog=catalog)
        b = verify_all(seed=0, scan_count=25, catalog=catalog)
        assert a.records == b.records

    def test_seed_change_keeps_symbolic_results(self, catalog, summary):
        other = verify_all(seed=123, scan_count=40, catalog=catalog)
        methods = {
            (r.section, r.label): r.method
            for r in summary.records
            if r.section in ("matrix", "scalar", "case")
        }
        for r in other.records:
            if r.section in ("matrix", "scalar", "case"):
                assert methods[(r.section, r.label)] == r.method

    def test_only_filter(self, catalog):
        partial = verify_all(seed=0, scan_count=1, only="3.3", catalog=catalog)
        labels = {r.label for r in partial.records}
        assert labels == {f"3.3.{k}" for k in range(1, 13)}
        partial = verify_all(seed=0, scan_count=20, only="4.8.1", catalog=catalog)
        assert {r.label for r in partial.records} == {"4.8.1"}
        assert partial.ok


def load_catalog_text_patched() -> str:
    import importlib.resources

    text = (
        importlib.resources.files("lieschouten")
        .joinpath("data/catalog.txt")
        .read_text(encoding="utf-8")
    )
    target = "row1 = 1/2*beta^2, alpha*beta, alpha*beta"
    assert target in text
    return text.replace(target, "row1 = beta^2, alpha*beta, alpha*beta", 1)


class TestFixtureRoundTrips:
    def test_every_fixture_polynomial_survives_parse_print_parse(self, catalog):
        from lieschouten.poly import DEFAULT_TABLE, parse_polynomial

        seen = 0
        for fixture in catalog.matrices:
            for row in fixture.entries:
                for entry in row:
                    assert parse_polynomial(str(entry), DEFAULT_TABLE) == entry
                    seen += 1
        for fixture in catalog.scalars:
            assert parse_polynomial(str(fixture.expr), DEFAULT_TABLE) == fixture.expr
            seen += 1
        for case in catalog.cases:
            exprs = [e for _, e in case.substitutions]
            exprs += [e for _, e in case.sample_subs]
            exprs += [rhs for _, rhs in case.reductions]
            exprs += list(case.nonzero)
            if case.c_expr is not None:
                exprs.append(case.c_expr)
            if case.variant_c is not None:
                exprs.append(case.variant_c)
            for e in exprs:
                assert parse_polynomial(str(e), DEFAULT_TABLE) == e
                seen += 1
        assert seen > 250


class TestSuspectEvidence:
    # pin the verification strength of every suspect claim's variant so a
    # regression cannot silently weaken the evidence
    EXPECTED = {
        "3.3.8": ("failed", "exact"),
        "3.3.11": ("failed", "exact"),
        "3.3.12": ("failed", "exact"),
        "3.4.1": ("failed", "exact"),
        "3.5.1": ("failed", "exact"),
        "3.5.2": ("failed", "reduced"),
        "4.6.1": ("exact", None),  # stated form verifies; restriction is the issue
        "4.11.1": ("failed", "exact"),
    }

    def test_variant_strengths(self, catalog):
        from lieschouten.soliton import verify_case

        for label, (stated, variant) in self.EXPECTED.items():
            report = verify_case(catalog.case(label))
            assert (report.method, report.variant_method) == (stated, variant), label
            if stated == "failed":
                assert report.counterexample is not None, label


def test_verify_builds_each_branch_once():
    # g5 has one branch per connection kind: three builds of each, and
    # every later section reuses them; the three scans share one sample
    cached = (connection, ricci_pipeline, soliton_system, soliton._compiled_decomposition)
    for fn in cached + (soliton._branch_sample,):
        fn.cache_clear()
    summary = verify_all(only="g5", scan_count=20)
    assert summary.ok and summary.records
    for fn in cached:
        assert fn.cache_info().misses == 3, fn.__name__
    assert ricci_pipeline.cache_info().hits > 0
    assert soliton_system.cache_info().hits > 0
    assert soliton._branch_sample.cache_info().misses == 1


def test_verify_leaves_the_shared_sample_untouched():
    # the memoised points are shared by every scan: no caller may write them
    soliton._branch_sample.cache_clear()
    verify_all(only="g5", scan_count=20)
    g5 = build_family("g5")
    scaled, slots = soliton._branch_sample(g5, 0, 20)
    assert [point_values(*scaled[k]) for k in slots] == sample_parameters(g5, seed=0, count=20)


# -- the job runner: one forked worker shares the family jobs --------------------

TWO_CPUS = hasattr(os, "fork") and (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) >= 2


class ScanFault(Exception):
    """Raised by a patched scan check."""


def serial_scan_records(catalog, seed, scan_count):
    """The scan section's records, each check run in this process."""
    records = []
    for fid in FAMILY_IDS:
        for kind in CONNECTION_KINDS:
            tag = catalog_module._family_tag(fid, kind)
            check = catalog_module._scan_check(catalog, fid, kind, seed, scan_count)
            records.append(VerifyRecord("scan", tag, *check, (tag, fid, "scan")))
    return records


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of the test; the forks themselves are real."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.mark.skipif(not TWO_CPUS, reason="the worker needs two CPUs")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forked_scan_records_equal_the_serial_ones(catalog, forks, monkeypatch, seed):
    summary = verify_all(seed=seed, scan_count=60, catalog=catalog)
    assert len(forks) == 1
    assert_no_child_left()
    scanned = [r for r in summary.records if r.section == "scan"]
    assert scanned == serial_scan_records(catalog, seed, 60)
    assert summary.records[-len(scanned):] == tuple(scanned)
    # the whole stream, every section included, equals the serial run's
    monkeypatch.setattr(catalog_module, "_may_fork", lambda families: False)
    assert verify_all(seed=seed, scan_count=60, catalog=catalog) == summary
    assert len(forks) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the runner forks")
def test_two_processes_share_the_job_list(forks):
    # job 0 waits for job 1, so whichever process takes job 0 leaves job 1
    # to the other one
    ready, ready_end = os.pipe()

    def first():
        assert select.select([ready], [], [], 60)[0], "job 1 never ran"
        return ["first", os.getpid()]

    def second():
        os.write(ready_end, b"x")
        return ["second", os.getpid()]

    try:
        (name0, pid0), (name1, pid1) = catalog_module._run_jobs([first, second], True)
    finally:
        os.close(ready)
        os.close(ready_end)
    assert (name0, name1) == ("first", "second")
    assert pid0 != pid1 and os.getpid() in (pid0, pid1)
    assert len(forks) == 1
    assert_no_child_left()


ONE_FAMILY_SELECTORS = ("3.3.7", "3.3", "g4", "g5-can", "4.44=4.45")
SECTIONS = ("structural", "matrix", "scalar", "case", "control", "witness", "scan")


@pytest.mark.parametrize("serial", [False, True], ids=["forked", "serial"])
@pytest.mark.parametrize("only", ONE_FAMILY_SELECTORS + SECTIONS)
def test_only_keeps_the_full_runs_records_in_its_order(catalog, summary, forks, monkeypatch, only, serial):
    # each family is one job across all seven sections; the merge puts the
    # records back in the full run's order, forked or serial
    if serial:
        monkeypatch.setattr(catalog_module, "_may_fork", lambda families: False)
    selected = verify_all(seed=0, scan_count=40, only=only, catalog=catalog)
    assert selected.records == tuple(r for r in summary.records if only in r.selectors)
    assert selected.records
    assert len(forks) == (TWO_CPUS and not serial and only in SECTIONS)
    assert_no_child_left()


@pytest.mark.parametrize("serial", [False, True], ids=["forked", "serial"])
def test_the_run_is_section_major_in_catalogue_order(catalog, monkeypatch, serial):
    # the jobs are family-major; the merge must not leave them so
    if serial:
        monkeypatch.setattr(catalog_module, "_may_fork", lambda families: False)
    records = verify_all(seed=0, scan_count=20, catalog=catalog).records
    sections = [r.section for r in records]
    assert sections == sorted(sections, key=SECTIONS.index) and set(sections) == set(SECTIONS)
    assert [r.label for r in records if r.section == "case"] == [c.label for c in catalog.cases]


def test_a_single_family_or_case_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a single family")

    monkeypatch.setattr(os, "fork", no_fork)
    assert verify_all(only="3.3.7").ok
    assert verify_all(only="g5").ok


def test_a_live_thread_or_one_cpu_keeps_the_run_serial(monkeypatch):
    monkeypatch.setattr(catalog_module.threading, "active_count", lambda: 2)
    assert not catalog_module._may_fork(FAMILY_IDS)
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not catalog_module._may_fork(FAMILY_IDS)
    assert not catalog_module._may_fork(FAMILY_IDS[:1])


def raising_for(fid):
    real = catalog_module._scan_check

    def patched(catalog, family, *args):
        if family == fid:
            raise ScanFault(family)
        return real(catalog, family, *args)

    return patched


def test_a_family_that_raises_raises_the_serial_runs_type(catalog, monkeypatch):
    monkeypatch.setattr(catalog_module, "_scan_check", raising_for("g6"))
    with pytest.raises(ScanFault):
        verify_all(only="scan", scan_count=20, catalog=catalog)
    assert_no_child_left()
    monkeypatch.setattr(catalog_module, "_may_fork", lambda families: False)
    with pytest.raises(ScanFault):
        verify_all(only="scan", scan_count=20, catalog=catalog)


def fail_in_the_worker(monkeypatch):
    """Patch the scan check to raise ScanFault in the worker only.  The
    parent's first scan waits until the worker has failed, so the worker
    surely takes the next family job.  Returns the pipe for the caller to
    close."""
    parent = os.getpid()
    failed, failed_end = os.pipe()
    real_scan = catalog_module._scan_check

    def scan_fails_in_the_worker(catalog, fid, *args):
        if os.getpid() != parent:
            os.write(failed_end, b"x")
            raise ScanFault(fid)
        assert select.select([failed], [], [], 60)[0], "the worker never failed"
        return real_scan(catalog, fid, *args)

    monkeypatch.setattr(catalog_module, "_scan_check", scan_fails_in_the_worker)
    return failed, failed_end


@pytest.mark.skipif(not TWO_CPUS, reason="the worker needs two CPUs")
def test_the_workers_exception_is_raised_in_the_parent(catalog, forks, monkeypatch):
    pipe = fail_in_the_worker(monkeypatch)
    try:
        with pytest.raises(ScanFault):
            verify_all(scan_count=20, only="scan", catalog=catalog)
    finally:
        for fd in pipe:
            os.close(fd)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.skipif(not TWO_CPUS, reason="the worker needs two CPUs")
def test_a_worker_that_vanishes_leaves_its_families_to_the_parent(catalog, forks, monkeypatch):
    expected = serial_scan_records(catalog, 0, 20)
    parent = os.getpid()
    real_scan = catalog_module._scan_check

    def scan_dies_in_the_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real_scan(*args)

    monkeypatch.setattr(catalog_module, "_scan_check", scan_dies_in_the_worker)
    summary = verify_all(scan_count=20, only="scan", catalog=catalog)
    assert len(forks) == 1
    assert list(summary.records) == expected
    assert_no_child_left()


def test_a_failing_section_leaves_no_child(catalog, monkeypatch):
    def failing_cases(*args):
        raise ScanFault("case section")

    monkeypatch.setattr(catalog_module, "_case_check", failing_cases)
    with pytest.raises(ScanFault):
        verify_all(scan_count=20, catalog=catalog)
    assert_no_child_left()


class ParentInterrupt(BaseException):
    """Raised in the parent, outside any job's outcome, like a ^C."""


@pytest.mark.skipif(
    not (TWO_CPUS and os.path.isdir("/proc/self/fd")), reason="needs two CPUs and /proc/self/fd"
)
def test_no_run_leaves_an_open_fd(catalog, forks, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    assert verify_all(scan_count=20, only="scan", catalog=catalog).ok
    assert open_fds() == before

    pipe = fail_in_the_worker(monkeypatch)
    with pytest.raises(ScanFault):
        verify_all(scan_count=20, only="scan", catalog=catalog)
    for fd in pipe:
        os.close(fd)
    assert open_fds() == before

    # the worker blocks in its first scan and the parent is interrupted in
    # its own: the parent kills and reaps the worker instead of waiting
    parent = os.getpid()
    never, never_end = os.pipe()

    def scan_interrupted(*args):
        if os.getpid() == parent:
            raise ParentInterrupt
        select.select([never], [], [], 60)
        raise ScanFault("the worker was not killed")

    monkeypatch.setattr(catalog_module, "_scan_check", scan_interrupted)
    start = time.monotonic()
    try:
        with pytest.raises(ParentInterrupt):
            verify_all(scan_count=20, only="scan", catalog=catalog)
    finally:
        os.close(never)
        os.close(never_end)
    assert time.monotonic() - start < 30
    assert open_fds() == before
    assert len(forks) == 3
    assert_no_child_left()
