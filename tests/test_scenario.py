"""The scenario reader against Python's configparser, its reference grammar,
and the one space per distinct ``[ambient]`` section."""

import configparser
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo import expr as ex
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.cli import render_json
from prodgeo.scenario import (
    ScenarioError,
    _ambient_space,
    _read_sections,
    loads_scenario,
    scenario_text,
)
from prodgeo.verify import verify


def _configparser_sections(text):
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cfg.optionxform = str
    cfg.read_string(text)
    return {s: dict(cfg[s]) for s in cfg.sections()}


def _same_as_configparser(text):
    """The reader returns what configparser reads, in its order, and raises
    ScenarioError where configparser raises."""
    try:
        expected = _configparser_sections(text)
    except configparser.Error:
        with pytest.raises(ScenarioError):
            _read_sections(text)
        return False
    got = _read_sections(text)
    assert [(s, list(keys.items())) for s, keys in got.items()] == \
           [(s, list(keys.items())) for s, keys in expected.items()]
    return True


# Scenario-like lines.  No header is [DEFAULT] and none has text after its ']'
# (configparser ignores that text, the reader rejects it), so no line that is
# not a header starts with '['.
_NAMES = st.sampled_from(("", "ambient", "samples", "A", "a", "x y", " s ", "a]b", "[a", "k=v",
                          "a#b", "a;b"))
_KEYS = st.builds("{}{}".format, st.sampled_from(("map", "Map", "n", "n n", "k", "1", "a#b")),
                  st.sampled_from(("", "2", "3", "_x")))
_TEXT = st.text(alphabet="ab1 ,;=:()#]\t\xa0", max_size=10)
_INDENT = st.text(alphabet=" \t\xa0\x0b\u2003", max_size=3)
_SEPARATORS = st.sampled_from(("=", " = ", ":", " : ", "= ", " =", "\t:"))
_COMMENTS = st.sampled_from(("", " # note", "\t#", " #", "#tight"))  # '#tight' is text
_KEY_LINES = st.builds("{}{}{}{}{}".format, _INDENT, _KEYS, _SEPARATORS, _TEXT, _COMMENTS)
_LINES = st.one_of(
    st.builds("{}[{}]{}".format, _INDENT, _NAMES, _COMMENTS.filter(lambda c: c != "#tight")),
    _KEY_LINES,
    _KEY_LINES,  # twice, so that most sections hold keys
    st.builds("{}{}{}".format, _INDENT, st.sampled_from("#;"), _TEXT),
    _INDENT,  # a blank line
    # a continuation if deeper than its key, else a line without a delimiter
    st.builds("{} {}{}".format, _INDENT, _TEXT, _COMMENTS),
)
_ENDINGS = st.sampled_from(("\n", "\r\n"))


@st.composite
def _scenario_like_texts(draw):
    lines = draw(st.lists(_LINES, max_size=14))
    if draw(st.sampled_from((True, True, True, False))):  # mostly a section first
        lines.insert(0, f"[{draw(_NAMES)}]")
    text = "".join(line + draw(_ENDINGS) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_scenario_like_texts())
def test_reader_matches_configparser(text):
    _same_as_configparser(text)


CONTINUED = (
    "[immersion]\n"
    "map = cos(u1),  # the first component\n"
    "    sin(u1)\n"
    "\n"
    "  # a comment line inside the value\n"
    "\n"
    "    , 0\n"
    "n = 1 # note\n"
    "; comment\n"
    "label:\n"
    "\n"
)


def test_continued_value_keeps_its_blank_lines():
    assert _read_sections(CONTINUED) == {
        "immersion": {"map": "cos(u1),\nsin(u1)\n\n\n, 0", "n": "1", "label": ""}}
    assert _same_as_configparser(CONTINUED)


@pytest.mark.parametrize("text, read, message", [
    ("[a] b\nk = 1\n", {"a": {"k": "1"}}, "line 1: text after the section header '[a] b'"),
    ("[a]\n[b] c\n", {"a": {}, "b": {}}, "[a] line 2: text after the section header '[b] c'"),
])
def test_text_after_a_header_is_an_error(text, read, message):
    assert _configparser_sections(text) == read  # which ignores it
    with pytest.raises(ScenarioError) as err:
        _read_sections(text)
    assert str(err.value) == message


def test_default_is_an_ordinary_section():
    text = "[DEFAULT]\nk = 1\n[a]\n"
    assert _configparser_sections(text) == {"a": {"k": "1"}}
    assert _read_sections(text) == {"DEFAULT": {"k": "1"}, "a": {}}


def _catalog_exports(labels=None):
    for label in catalog_list() if labels is None else labels:
        scn = catalog_get(label)
        yield scenario_text(scn.space, scn.immersion, scn.samples, label=label)


def _workload_documents(seed):
    """The scenario texts of the benchmark's three workloads at ``seed``:
    8x8 grids of rect-torus and curved-block at two seeded offsets each, the
    catalog exports, and six 16-point random trig surfaces in R^2 x R^2."""
    rng = random.Random(seed)
    for label in ("rect-torus", "curved-block"):
        scn = catalog_get(label)
        starts = [rng.uniform(-1.0, 1.0) for _ in range(2)]
        samples = list(itertools.product(*([s + 0.8 * i for i in range(8)] for s in starts)))
        yield scenario_text(scn.space, scn.immersion, samples, label=label)
    yield from _catalog_exports()
    rng = random.Random(seed)
    for _ in range(6):
        imm = random_trig_immersion(rng.randrange(1 << 20), 16)
        yield scenario_text(flat_product(2, 2), imm, imm.samples)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_documents_read_as_configparser_reads_them(seed):
    for text in _workload_documents(seed):
        assert _same_as_configparser(text)


def test_loading_leaves_no_cyclic_garbage():
    texts = list(_catalog_exports())
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            loads_scenario(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- one space per distinct [ambient] section -------------------------------

_MAPS = {2: "cos(u1), sin(u1)", 3: "cos(u1), sin(u1), u1", 4: "cos(u1), sin(u1), u1, 0"}


def _document(section, components):
    """A circle document whose map has ``components`` components."""
    return (f"[ambient]\n{section}\n\n[immersion]\nn = 1\nmap = {_MAPS[components]}\n\n"
            "[samples]\npoints = (0.3,); (1.1,)\n")


_FLAT = "mode = product\np = 2\nq = 2\nblockA_metric = flat\nblockB_metric = flat"

# (ambient section, map components): valid ones first, then documents that fail
_POOL = (
    ("mode = product\ndim = 4\np = 2\nq = 2\nblockA_metric = 1, 0; 0, 1\n"
     "blockB_metric = 1, 0; 0, 1", 4),
    (_FLAT, 4),
    ("mode = product\np = 2\nq = 1\nblockA_metric = 1, 0; 0, sin(x1)^2\nblockB_metric = 1", 3),
    ("mode = explicit\ndim = 2\nmetric = 1, 0; 0, 1\nstructure = 0, 1; 1, 0", 2),
    (_FLAT + "\nfoo = 1", 4),  # a key the section does not read
    (_FLAT, 3),  # a map that does not fit the space
    ("mode = product\np = 2\nq = 2\nblockA_metric = 1, 0; 0\nblockB_metric = flat", 4),
    ("mode = product\ndim = 5\np = 2\nq = 2\nblockA_metric = flat\nblockB_metric = flat", 4),
    ("mode = mixed\np = 1", 2),
    ("mode = product\np = 1\nblockA_metric = flat\nblockB_metric = flat", 2),
    ("mode = product\np = 1\nq = 1\nblockA_metric = 1 + x2^2\nblockB_metric = flat", 2),
    ("mode = explicit\ndim = 2\nmetric = 1, x1; 0, 1\nstructure = 1, 0; 0, -1", 2),
)


def _load(text):
    """The space a document loads to, with its derivative tables, or its error text."""
    try:
        space = loads_scenario(text).space
    except ScenarioError as err:
        return type(err).__name__, str(err)
    return space, space.metric_diff, space.structure_diff, space.flat


def test_equal_ambient_sections_share_one_space_and_its_table_plan(monkeypatch):
    _ambient_space.cache_clear()
    compiled = []
    compile_plan = ex.Plan.__init__

    def counting(plan, tables):
        compiled.append(tables)
        compile_plan(plan, tables)

    monkeypatch.setattr(ex.Plan, "__init__", counting)
    # the two exports hold the same flat R^2 x R^2 section
    first, second = map(loads_scenario, _catalog_exports(("rect-torus", "square-torus-aligned")))
    assert second.space is first.space
    for scn in (first, second):
        verify(scn.space, scn.immersion, scn.samples)
    maps = [scn.immersion.components for scn in (first, second)]
    # the shared space compiles its one table plan when it is built, on the
    # first load; each document compiles its own map
    assert [next((i for i, m in enumerate(maps) if tables[0] is m), "space")
            for tables in compiled] == ["space", 0, 1]


def test_an_unread_ambient_key_fails_on_every_load():
    _ambient_space.cache_clear()
    clean = _document(_FLAT, 4)
    space = loads_scenario(clean).space
    for _ in range(2):
        with pytest.raises(ScenarioError) as err:
            loads_scenario(_document(_FLAT + "\nfoo = 1", 4))
        assert str(err.value) == "[ambient] key 'foo' is not read in product mode"
    assert loads_scenario(clean).space is space


@pytest.mark.parametrize("section, message", [
    ("mode = product\np = 2\nq = 2\nblockA_metric = 1, 0; 0\nblockB_metric = flat",
     "[ambient] matrix must be square (rows separated by ';')"),
    ("mode = product\ndim = 5\np = 2\nq = 2\nblockA_metric = flat\nblockB_metric = flat",
     "[ambient] declared dim 5 but the metric has dimension 4"),
])
def test_a_failing_ambient_section_fails_on_every_load(section, message):
    _ambient_space.cache_clear()
    for _ in range(3):
        with pytest.raises(ScenarioError) as err:
            loads_scenario(_document(section, 4))
        assert str(err.value) == message
    assert _ambient_space.cache_info().currsize == 0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(range(len(_POOL))), max_size=12))
def test_a_sequence_of_documents_loads_as_each_does_alone(picks):
    texts = [_document(*entry) for entry in _POOL]
    alone = []
    for text in texts:
        _ambient_space.cache_clear()
        alone.append(_load(text))
    _ambient_space.cache_clear()
    shared = {}  # ambient section -> the space it loaded to
    for pick in picks:
        loaded = _load(texts[pick])
        assert loaded == alone[pick]
        if not isinstance(loaded[0], str):  # a valid section gives one space
            assert shared.setdefault(_POOL[pick][0], loaded[0]) is loaded[0]


def _report(text):
    scn = loads_scenario(text)
    return render_json(verify(scn.space, scn.immersion, scn.samples, scn.tolerances))


def _shared_flat_documents():
    """The catalog exports and three fuzz documents, which share one flat
    R^2 x R^2 space with five of the exports."""
    yield from _catalog_exports()
    for seed in (3, 14, 159):
        imm = random_trig_immersion(seed, 16)
        yield scenario_text(flat_product(2, 2), imm, imm.samples)


_SHARED = list(_shared_flat_documents())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(range(len(_SHARED))), min_size=2, max_size=8))
def test_a_sequence_of_documents_reports_what_each_reports_alone(picks):
    # a constant space is evaluated and validated once and then serves every
    # document that shares it; the bytes are those of a space built afresh
    alone = {}
    for pick in set(picks):
        _ambient_space.cache_clear()
        alone[pick] = _report(_SHARED[pick])
    _ambient_space.cache_clear()
    assert [_report(_SHARED[pick]) for pick in picks] == [alone[pick] for pick in picks]


def test_a_document_reports_the_same_bytes_after_any_other():
    texts = list(_catalog_exports())
    alone = []
    for text in texts:
        _ambient_space.cache_clear()
        alone.append(_report(text))
    for (i, before), (j, text) in itertools.product(enumerate(texts), repeat=2):
        _ambient_space.cache_clear()
        assert _report(before) == alone[i]
        assert _report(text) == alone[j], (catalog_list()[i], catalog_list()[j])


# ---- sample points ------------------------------------------------------------

_CIRCLE = ("[ambient]\nmode = product\np = 1\nq = 1\nblockA_metric = flat\nblockB_metric = flat\n\n"
           "[immersion]\nn = 1\nmap = cos(u1), sin(u1)\n\n[samples]\npoints = ")


@pytest.mark.parametrize("points, message", [
    ("(0.5,); (\u0663,)", "[samples] non-numeric sample point '(\u0663,)'"),
    ("(0.5,); (\uff11.0,)", "[samples] non-numeric sample point '(\uff11.0,)'"),
    ("(0.5,); (1_0,)", "[samples] non-numeric sample point '(1_0,)'"),
    ("(0.5,); (1_0,); (\u0663,)", "[samples] non-numeric sample point '(1_0,)'"),
    ("(0.5,); (,1)", "[samples] non-numeric sample point '(,1)'"),
    ("(0.5,); (1,,)", "[samples] non-numeric sample point '(1,,)'"),
    ("(0.5,); (0.7, 0.9,)", "[samples] sample (0.7, 0.9,) has 2 coordinates, expected 1"),
    ("(0.5,); ()", "[samples] sample () has 0 coordinates, expected 1"),
    ("(0.5,);", "[samples] empty entry in '(0.5,);'"),
    ("(0.5,); (nan,)", "[samples] sample point (nan,) is not finite"),
])
def test_sample_points_that_are_not_plain_numbers_keep_their_messages(points, message):
    # a points text is checked for plain ASCII once, but each message names
    # the first point that fails, as when each coordinate was checked alone
    with pytest.raises(ScenarioError) as err:
        loads_scenario(_CIRCLE + points + "\n")
    assert str(err.value) == message


def test_sample_coordinates_are_read_through_unicode_whitespace():
    # the coordinates are stripped before they are read, so a non-ASCII space
    # around one is no error, as it was not when each was checked alone
    samples = loads_scenario(_CIRCLE + "(\u00a00.5\u2003,); (+.5e1 ,); (1, )\n").samples
    assert samples == ((0.5,), (5.0,), (1.0,))
