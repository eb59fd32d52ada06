import json

import pytest

import checks
import child
import querygen


@pytest.fixture(scope="module")
def answered():
    stream = querygen.generate(5)[:querygen.BLOCK_SIZE]
    replies, latencies = child.queries_job(stream)
    return stream, replies


def test_engine_passes_every_check(answered):
    stream, replies = answered
    assert child.queries_check(stream, replies) == []


def _first(stream, kind):
    return next(q for q in stream
                if q["kind"] == kind and "repeat_of" not in q)


def _tamper(answered, kind, edit):
    stream, replies = answered
    q = _first(stream, kind)
    code, text = replies[q["id"]]
    bad = dict(replies)
    bad[q["id"]] = (code, edit(text))
    with pytest.raises(checks.CheckFailed):
        checks.check_reply(q, *bad[q["id"]], bad)


def _json_edit(fn):
    def edit(text):
        obj = json.loads(text)
        fn(obj)
        return json.dumps(obj)
    return edit


def test_wrong_betti_is_caught(answered):
    _tamper(answered, "betti", _json_edit(lambda b: b.__setitem__(1, b[1] + 1)))


def test_wrong_isomorphism_verdict_is_caught(answered):
    _tamper(answered, "isomorphic", _json_edit(
        lambda o: o.__setitem__("isomorphic", not o["isomorphic"])))


def test_out_above_bound_is_caught(answered):
    _tamper(answered, "out", _json_edit(
        lambda o: o.__setitem__("out_order", o["bound"] * 2)))


def test_wrong_exit_code_is_caught(answered):
    stream, replies = answered
    q = _first(stream, "invalid")
    with pytest.raises(checks.CheckFailed):
        checks.check_reply(q, 0, "[]", replies)
