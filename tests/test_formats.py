"""Round trips and fuzzing of the four text formats.

Each reader must give back what its writer wrote, and on any other text
either parse it or raise the format's ValueError subclass, never an
IndexError, KeyError or TypeError from inside the parser.  A graph or
circuit it does parse has non-negative counts and finite weights, and an
error it raises names the offending line."""

import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from icecomp.circuit import (CircuitError, ComponentRole, Gate, GateKind,
                             PhysicalCircuit)
from icecomp.compiler import read_encoded, write_encoded
from icecomp.gadgets import ParityCheck
from icecomp.maxcut import (QaoaParams, make_graph, read_graph, read_params,
                            write_graph, write_params)
from icecomp.simulator import (NoiseFormatError, NoiseModel, read_noise,
                               write_noise)

ROUND_TRIP = settings(deadline=None)
FUZZ = settings(max_examples=300, deadline=None)
angles = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def graphs(draw):
    k = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                    st.integers(0, k - 1))
                          .filter(lambda e: e[0] < e[1]), unique=True))
    weights = draw(st.lists(st.one_of(st.just(1.0), angles),
                            min_size=len(pairs), max_size=len(pairs)))
    return make_graph(k, pairs, weights)


@st.composite
def params(draw):
    p = draw(st.integers(0, 5))
    lists = st.lists(angles, min_size=p, max_size=p).map(tuple)
    return QaoaParams(draw(lists), draw(lists))


noise_models = st.builds(NoiseModel, p2=unit, p1=unit, p_idle=unit,
                         p_meas=unit,
                         scale=st.floats(min_value=0.0, max_value=1e6))


@st.composite
def encoded(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
    gate = st.one_of(
        st.builds(lambda k, qs, a: Gate(k, qs, angle=a),
                  st.sampled_from([GateKind.RZZ, GateKind.RXX]), pair, angles),
        st.builds(lambda qs: Gate(GateKind.CNOT, qs), pair),
        st.builds(lambda k, q: Gate(k, (q,)),
                  st.sampled_from([GateKind.H, GateKind.X, GateKind.Z,
                                   GateKind.RESET]), qubit),
        st.builds(lambda k, q, c: Gate(k, (q,), clbit=c),
                  st.sampled_from([GateKind.MEASURE_Z, GateKind.MEASURE_X]),
                  qubit, st.integers(0, m - 1)),
        st.builds(lambda qs: Gate(GateKind.BARRIER, tuple(qs)),
                  st.lists(qubit, max_size=n, unique=True)),
    )
    gates = draw(st.lists(gate, min_size=1, max_size=12))
    # components are non-decreasing along the gate list, so every per-qubit
    # component order holds
    cuts = sorted(draw(st.lists(st.integers(0, len(gates)), max_size=3)))
    roles = draw(st.lists(st.sampled_from(list(ComponentRole)),
                          min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    circ = PhysicalCircuit(n, m)
    for i, g in enumerate(gates):
        cid = sum(1 for c in cuts if c <= i)
        if cid not in circ.components:
            circ.begin_component(cid, roles[cid])
        circ.add(Gate(g.kind, g.qubits, angle=g.angle, clbit=g.clbit,
                      component=cid))
    bits = st.frozensets(st.integers(0, m - 1))
    checks = tuple(draw(st.lists(st.builds(ParityCheck, bits,
                                           st.integers(0, 1)))))
    decode = draw(st.dictionaries(st.integers(1, 4), bits))
    return SimpleNamespace(circuit=circ, checks=checks, decode=decode)


@ROUND_TRIP
@given(graphs())
def test_graph_round_trip(graph):
    assert read_graph(write_graph(graph)) == graph


@ROUND_TRIP
@given(params())
def test_params_round_trip(p):
    assert read_params(write_params(p)) == p


@ROUND_TRIP
@given(noise_models)
def test_noise_round_trip(model):
    assert read_noise(write_noise(model)) == model


@ROUND_TRIP
@given(encoded())
def test_encoded_round_trip(enc):
    circuit, checks, decode = read_encoded(write_encoded(enc))
    assert (circuit.num_qubits, circuit.num_clbits) == \
        (enc.circuit.num_qubits, enc.circuit.num_clbits)
    assert circuit.gates == enc.circuit.gates
    assert circuit.components == enc.circuit.components
    assert (checks, decode) == (enc.checks, enc.decode)


def texts(words):
    """Lines of format words, numbers and stray tokens."""
    token = st.one_of(st.sampled_from(words), st.integers(-3, 40).map(str),
                      st.sampled_from(["0.5", "-1e3", "nan", "inf", "1e999",
                                       "x", "#", "[", "]", ",", ":", "="]),
                      st.text(max_size=4))
    line = st.lists(token, max_size=6).map(" ".join)
    return st.lists(line, max_size=8).map("\n".join)


GRAPH_WORDS = ["graph", "edge"]
PARAMS_WORDS = ["p", "gammas:", "betas:", "gammas", "betas", "[0.1]",
                "[0.1,", "0.2]", "[]"]
NOISE_WORDS = ["p2", "p1", "p_idle", "p_meas", "scale", "0.001"]
ENCODED_WORDS = ["qubits", "clbits", "component", "INIT", "SYNDROME",
                 "check", "logical", "c0", "c1", "^", "rzz", "rxx", "cx", "h",
                 "x", "z", "mz", "mx", "reset", "barrier", "0.3"]


def _sane_graph(g):
    assert g.num_vertices >= 0
    assert all(math.isfinite(w) for _, _, w in g.edges)


def _sane_encoded(parsed):
    circuit = parsed[0]
    assert circuit.num_qubits >= 0 and circuit.num_clbits >= 0


# texts that once parsed into a graph or circuit failing the sanity checks,
# or raised without naming their line; random token soups rarely form a
# whole valid file, so these are run first
GRAPH_EXAMPLES = ["graph -1 0", "graph 2 1\nedge 0 1 nan",
                  "graph 2 1\nedge 0 1 inf", "graph 2 1\nedge 0 5",
                  "graph 2 1\nedge 1 1", "graph 2 2\nedge 0 1\nedge 1 0"]
ENCODED_EXAMPLES = ["qubits -2 clbits -1", "qubits 2 clbits -1",
                    "qubits 2 clbits 1\ncx 0 5", "qubits 2 clbits 1\nmz 0 3",
                    "component 0 INIT\nh 0\ncomponent 1 SYNDROME\nh 0\n"
                    "component 0 INIT\nh 0"]
# every error names its line, but for a file-level one
GRAPH_NAMED = r"line \d+: |missing 'graph k m' header"
ENCODED_NAMED = r"line \d+: "


@pytest.mark.parametrize("read, error, words, sane, examples, named", [
    (read_graph, ValueError, GRAPH_WORDS, _sane_graph, GRAPH_EXAMPLES,
     GRAPH_NAMED),
    (read_params, ValueError, PARAMS_WORDS, None, [], None),
    (read_noise, NoiseFormatError, NOISE_WORDS, None, [], None),
    (read_encoded, CircuitError, ENCODED_WORDS, _sane_encoded,
     ENCODED_EXAMPLES, ENCODED_NAMED),
], ids=["graph", "params", "noise", "encoded"])
def test_fuzz_parses_or_raises_format_error(read, error, words, sane,
                                            examples, named):
    def check(text):
        try:
            parsed = read(text)
        except error as e:
            if named is not None:
                assert re.match(named, str(e)), str(e)
            return
        if sane is not None:
            sane(parsed)

    check = given(texts(words))(check)
    for text in examples:
        check = example(text)(check)
    FUZZ(check)()
