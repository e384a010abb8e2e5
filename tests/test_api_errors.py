"""Error paths of the stable ``repro.api`` v1 surface.

Payloads cross process boundaries, so every malformed shape must come
back as a ``ValueError`` naming the problem — never a bare
``TypeError``/``AttributeError`` out of dataclass plumbing — and
``execute`` must reject unknown request types explicitly.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api


def _payload(**overrides) -> dict:
    payload = {
        "kind": "RunRequest",
        "v": api.API_VERSION,
        "workload": "BFS",
        "scale": "small",
        "scheme": "baseline",
        "distance": 32,
        "engine": None,
    }
    payload.update(overrides)
    return payload


def test_round_trip_is_the_baseline():
    request = api.RunRequest(workload="BFS", scale="small")
    assert api.RunRequest.from_json(request.to_json()) == request


@pytest.mark.parametrize("bad", [None, 7, "x", ["kind"], (1, 2)])
def test_non_dict_payload_rejected(bad):
    with pytest.raises(ValueError, match="JSON object"):
        api.RunRequest.from_payload(bad)


def test_wrong_kind_rejected():
    with pytest.raises(ValueError, match="ProfileRequest.*RunRequest"):
        api.RunRequest.from_payload(_payload(kind="ProfileRequest"))


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_unknown_payload_version_rejected(version):
    with pytest.raises(ValueError, match="unsupported payload version"):
        api.RunRequest.from_payload(_payload(v=version))


def test_unexpected_field_rejected_with_known_fields_named():
    with pytest.raises(ValueError, match="unexpected field.*bogus"):
        api.RunRequest.from_payload(_payload(bogus=1))
    with pytest.raises(ValueError, match="workload"):
        # The known-field list is part of the message (debuggability).
        api.RunRequest.from_payload(_payload(bogus=1))


def test_missing_required_field_is_a_value_error():
    payload = _payload()
    del payload["workload"]
    with pytest.raises(ValueError, match="malformed RunRequest payload"):
        api.RunRequest.from_payload(payload)


def test_bad_json_text_raises_from_json():
    with pytest.raises(json.JSONDecodeError):
        api.RunRequest.from_json("{not json")


def test_request_validation_still_fires_through_payloads():
    with pytest.raises(ValueError, match="unknown scheme"):
        api.RunRequest.from_payload(_payload(scheme="psychic"))
    # "quantum" never existed; the others are removed engines/aliases.
    for engine in ("quantum", "fast", "translate", "interpret"):
        with pytest.raises(ValueError, match="engine must be one of"):
            api.RunRequest.from_payload(_payload(engine=engine))
        with pytest.raises(ValueError, match="engine must be one of"):
            api.SweepRequest(workload="BFS-tiny", engine=engine)


def test_every_request_type_shares_the_hardened_path():
    for cls in (
        api.ProfileRequest,
        api.RunRequest,
        api.SiteReportRequest,
        api.SuiteRequest,
    ):
        with pytest.raises(ValueError, match="JSON object"):
            cls.from_payload("nope")
        with pytest.raises(ValueError, match="unexpected field"):
            payload = json.loads(
                cls(workload="BFS").to_json()
                if cls is not api.SuiteRequest
                else cls().to_json()
            )
            payload["extra"] = True
            cls.from_payload(payload)


def test_execute_rejects_unknown_request_kind():
    with pytest.raises(TypeError, match="unknown request type.*str"):
        api.execute("RunRequest")
    with pytest.raises(TypeError, match="ProfileRequest"):
        # The accepted request types are named in the message.
        api.execute(object())
