"""The reference corpus (see ``corpus.py``): every run reports what was recorded,
and the same bytes again in one process and in one run of every file."""

import pytest

import corpus


@pytest.fixture(scope="module")
def runs():
    return corpus.run_all()


def test_the_corpus_reports_its_reference(runs):
    moved = corpus.differences(corpus.load_reference(), corpus.record_all(runs))
    assert not moved, corpus.summary(moved)


def test_the_corpus_reports_the_same_bytes_when_run_again(runs):
    assert corpus.run_all() == runs


@pytest.mark.parametrize("command", corpus.COMMANDS)
def test_one_run_of_every_file_prints_what_each_prints_alone(command, runs):
    paths = corpus.inputs()
    code, out, err = corpus.run([*corpus.COMMANDS[command], *map(str, paths)])
    alone = [runs[command][path.name] for path in paths]
    assert out == "".join(out for _, out, _ in alone)
    # with several files an error line names its file after the kind of error
    named = [line.replace(": ", f": {path}: ", 1)
             for path, (_, _, err) in zip(paths, alone) for line in err.splitlines()]
    assert err.splitlines() == named
    codes = {code for code, _, _ in alone}
    assert code == max(codes, key=(0, 3, 2).index)


def test_continuation_and_comment_lines_do_not_change_a_run(runs):
    for command, files in runs.items():
        assert files["circle-continued.ini"] == files["circle.ini"], command


def test_classify_prints_the_head_of_the_report(runs):
    # the scenario and validation lines, the class line and the per-point
    # table; only the overall line follows them
    for name, (code, out, _) in runs["classify"].items():
        if code == 0:
            head, report = out.splitlines()[:-1], runs["report"][name][1].splitlines()
            assert len(head) >= 5 and report[:len(head)] == head, name


def test_differences_name_each_moved_field_by_kind():
    reference = corpus.load_reference()
    current = corpus.load_reference()
    entry = current["check-json"]["circle.ini"]
    entry["exit"] = 3
    entry["verdicts"]["verdicts.consistent"] = False
    entry["floats"]["points.norms.phi"][0] *= 1 + 1e-10  # beyond 1e-12 relative
    entry["floats"]["points.residuals.lemma1"][0] += 1e-10  # both below 1e-9: agree
    lines = current["report"]["circle.ini"]["verdicts"]
    del lines["line 1"]
    # a number printed 12 wide takes its column's padding: no verdict moved
    assert "#            #" in lines["line 12"]
    lines["line 12"] = lines["line 12"].replace("#            #", "##", 1)
    lines["line 13"] = lines["line 13"].replace("invariant=n", "invariant=y")  # a changed word
    moved = corpus.differences(reference, current)
    assert [(kind, where) for kind, where, _ in moved] == [
        ("exit code", "check-json circle.ini"),
        ("verdict", "check-json circle.ini verdicts.consistent"),
        ("float", "check-json circle.ini points.norms.phi"),
        ("verdict", "report circle.ini line 1"),
        ("verdict", "report circle.ini line 13"),
    ]
    assert corpus.summary(moved).splitlines()[0] == "exit code (1):"
