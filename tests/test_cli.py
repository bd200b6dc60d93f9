"""Command-line interface: subcommands, formats, and exit codes."""

import json
import socket
from importlib import resources

import pytest

from afcsim.cli import main
from afcsim.geo import GeoPoint, LocationEllipse, destination_point
from afcsim.scenario import load_scenario
from afcsim.server import SpectrumInquiryRequest, handle_inquiry
from afcsim.wire import decode_request, dumps_response, encode_request, iso_to_epoch, post_inquiry

NOW = 1_750_000_000.0

DB_DOC = {
    "fsLinks": [
        {
            "id": "FS-1",
            "rxLocation": {"latitude": 40.883332, "longitude": -77.86, "heightM": 30.0},
            "freqRange": {"lowMhz": 5990.0, "highMhz": 6004.0},
            "bandwidthMhz": 20.0,
            "noiseFigureDb": 5.0,
            "maxGainDbi": 30.0,
            "azimuthDeg": 90.0,
            "beamwidthDeg": 6.0,
            "discriminationDb": 25.0,
        }
    ]
}


def request_doc(lat=40.7934, lon=-77.86, major=0.0):
    req = SpectrumInquiryRequest(
        request_id="REQ-1",
        device_serial="AP-1",
        certification_id="CERT-AP-1",
        location=LocationEllipse(
            center=GeoPoint(lat, lon),
            major_axis_m=major,
            minor_axis_m=0.0,
            orientation_deg=0.0,
            gps_time=NOW,
        ),
        height_m=3.0,
        inquired_bandwidths=(20, 40, 80, 160, 320),
        transport_authenticated=True,
    )
    return encode_request(req)


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# --- simulate ---------------------------------------------------------------


def test_simulate_bundled_name_and_harm_exit(in_tmp, capsys):
    assert main(["simulate", "a1_interference", "--fail-on-harm"]) == 3
    out = capsys.readouterr().out
    assert "scenario a1_interference seed 1" in out
    assert "AP-1: AUTHORIZED grants=76" in out
    assert "VIOLATED" in out
    assert "violations: harm=1 compliance=0" in out


def test_simulate_text_names_the_transmit_channel(in_tmp, capsys):
    # The label of a 320 MHz channel carries its variant; narrower ones have none.
    assert main(["simulate", "a1_interference"]) == 0
    assert "AP-1: AUTHORIZED grants=76 tx=320MHz_1 cfi 1 @ 36.00 dBm\n" in capsys.readouterr().out
    assert main(["simulate", "benign"]) == 0
    assert " tx=320MHz_2 cfi 33 @ " in capsys.readouterr().out


def test_simulate_benign_is_clean(in_tmp, capsys):
    assert main(["simulate", "benign.json", "--fail-on-harm"]) == 0
    out = capsys.readouterr().out
    assert "violations: harm=0 compliance=0" in out


def test_simulate_json_seed_and_out(in_tmp, capsys):
    code = main(
        ["simulate", "a1_interference", "--seed", "7", "--format", "json", "--out", "run"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    body = json.loads(printed)
    assert body["seed"] == 7
    assert body["scenario"] == "a1_interference"
    assert (in_tmp / "run" / "report.json").read_text() == printed
    console = (in_tmp / "run" / "AP-1.report.txt").read_text()
    assert "Received afc channels" in console and "Max Eirp" in console


def test_simulate_local_file_shadows_bundled(in_tmp, capsys):
    doc = {
        "name": "local",
        "seed": 3,
        "epoch": "2025-06-20T00:00:00Z",
        "world": {},
        "aps": [
            {"serial": "AP-9", "truePosition": {"latitude": 40.0, "longitude": -90.0}}
        ],
        "timeline": [{"at": 60, "action": "RUN_INQUIRY"}],
    }
    (in_tmp / "mini.json").write_text(json.dumps(doc))
    assert main(["simulate", "mini.json"]) == 0
    out = capsys.readouterr().out
    assert "scenario local seed 3" in out
    assert "AP-9: AUTHORIZED grants=76" in out


def test_simulate_unknown_scenario_exits_2(in_tmp, capsys):
    assert main(["simulate", "no_such_scenario"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_invalid_scenario_exits_2(in_tmp, capsys):
    (in_tmp / "broken.json").write_text("{not json")
    assert main(["simulate", "broken.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_malformed_epoch_exits_2(in_tmp, capsys):
    (in_tmp / "bad_epoch.json").write_text(json.dumps({"epoch": "not-a-date"}))
    assert main(["simulate", "bad_epoch.json"]) == 2
    assert "epoch" in capsys.readouterr().err


def test_simulate_malformed_section_exits_2(in_tmp, capsys):
    (in_tmp / "bad_world.json").write_text(json.dumps({"epoch": "2025-06-20T00:00:00Z", "world": []}))
    assert main(["simulate", "bad_world.json"]) == 2
    assert "scenario.world" in capsys.readouterr().err


SCENARIO_DOC = {
    "epoch": "2025-06-20T00:00:00Z",
    "aps": [{"serial": "AP-1", "truePosition": {"latitude": 40.0, "longitude": -77.0}}],
    "timeline": [{"at": 10, "action": "RUN_INQUIRY"}],
}
SPOOFER_DOC = {
    "position": {"latitude": 40.0, "longitude": -77.001},
    "broadcastPosition": {"latitude": 30.0, "longitude": -100.0},
    "txPowerDbm": 10.0,
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"timeline": [{"at": 10, "action": "RUN_INQUIRY", "ap": ["AP-1"]}]},
        {"timeline": [{"at": 1e308, "action": "RUN_INQUIRY"}]},
        {"timeline": [{"at": 10, "action": "SET_AP_CLOCK_OFFSET", "ap": "AP-1", "offsetS": 1e308}]},
        {"spoofers": [dict(SPOOFER_DOC, timeOffsetS=float("inf"))]},
        {"gnss": {"sigmaM": float("inf")}},
        {"world": {"propagation": {"clutterOffsetDb": float("inf"), "regimeThresholdM": 1}}},
        {"world": {"protection": {"iOverNLimitDb": float("nan")}}},
    ],
    ids=["ap-list", "at-1e308", "offset-1e308", "spoofer-offset-inf", "sigma-inf", "clutter-inf", "i-over-n-nan"],
)
def test_simulate_unreadable_scenario_exits_2(in_tmp, capsys, overrides):
    (in_tmp / "odd.json").write_text(json.dumps(dict(SCENARIO_DOC, **overrides)))
    assert main(["simulate", "odd.json"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_simulate_spoofer_on_an_ap_exits_2(in_tmp, capsys):
    doc = dict(SCENARIO_DOC, spoofers=[dict(SPOOFER_DOC, position=SCENARIO_DOC["aps"][0]["truePosition"])])
    (in_tmp / "on_ap.json").write_text(json.dumps(doc))
    assert main(["simulate", "on_ap.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: spoofers[0]: position coincides with the true position of AP 'AP-1'\n"
    # Distinct longitudes whose distance underflows to 0 m are the same point too.
    ap_doc = dict(SCENARIO_DOC["aps"][0], truePosition={"latitude": 40.0, "longitude": 0.0})
    position = {"latitude": 40.0, "longitude": 5e-324}
    doc = dict(SCENARIO_DOC, aps=[ap_doc], spoofers=[dict(SPOOFER_DOC, position=position)])
    (in_tmp / "on_ap.json").write_text(json.dumps(doc))
    assert main(["simulate", "on_ap.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: spoofers[0]: position coincides with the true position of AP 'AP-1'\n"


def test_repeated_link_id_exits_2(in_tmp, capsys):
    twin = dict(DB_DOC["fsLinks"][0], rxLocation={"latitude": 41.083332, "longitude": -77.86, "heightM": 30.0})
    database = {"fsLinks": DB_DOC["fsLinks"] + [twin]}
    (in_tmp / "twin.json").write_text(json.dumps(dict(SCENARIO_DOC, world={"database": database})))
    assert main(["simulate", "twin.json"]) == 2
    assert capsys.readouterr().err == "error: fsLinks[1].id: duplicate link id 'FS-1'\n"
    (in_tmp / "req.json").write_text(json.dumps(request_doc()))
    (in_tmp / "world.json").write_text(json.dumps({"database": database}))
    assert main(["inquire", "req.json", "--world", "world.json"]) == 2
    assert capsys.readouterr().err == "error: fsLinks[1].id: duplicate link id 'FS-1'\n"


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_simulate_out_that_cannot_be_a_directory_exits_2_before_the_run(in_tmp, capsys, monkeypatch, out):
    (in_tmp / "taken").write_text("kept")

    def refuse(scenario):
        raise AssertionError("the scenario was run")

    monkeypatch.setattr("afcsim.cli.run_scenario", refuse)
    assert main(["simulate", "benign.json", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot make directory {out}: ") and err.count("\n") == 1
    assert (in_tmp / "taken").read_text() == "kept"


@pytest.mark.parametrize("name", ["report.json", "AP-1.report.txt"])
def test_simulate_out_file_that_is_a_directory_exits_2(in_tmp, capsys, name):
    (in_tmp / "o" / name).mkdir(parents=True)
    assert main(["simulate", "benign.json", "--out", "o"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: --out: cannot write {'o/' + name}: Is a directory\n"
    assert out == ""
    assert (in_tmp / "o" / name).is_dir()


# --- inquire -----------------------------------------------------------------


def test_inquire_text_open_spectrum(in_tmp, capsys):
    (in_tmp / "req.json").write_text(json.dumps(request_doc()))
    assert main(["inquire", "req.json"]) == 0
    out = capsys.readouterr().out
    assert "request REQ-1: SUCCESS" in out
    assert "grants: 76" in out
    assert "36.00 dBm" in out


def test_inquire_json_against_database(in_tmp, capsys):
    # 2 km due south of the receiver: inside the clutter regime of the
    # default propagation model, far enough off-boresight for the low gain.
    near = destination_point(GeoPoint(40.883332, -77.86), 180.0, 2000.0)
    (in_tmp / "req.json").write_text(
        json.dumps(request_doc(lat=near.lat_deg, lon=near.lon_deg))
    )
    (in_tmp / "world.json").write_text(json.dumps({"database": DB_DOC}))
    assert main(["inquire", "req.json", "--world", "world.json", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["responseCode"] == "SUCCESS"
    assert len(body["grants"]) == 76
    by_key = {(g["bandwidthMhz"], g["cfi"]): g["maxEirpDbm"] for g in body["grants"]}
    assert by_key[(20, 9)] == 27.03
    assert by_key[(20, 1)] == 36.0
    assert by_key[(20, 5)] == 36.0


CAPPED_WORLD = {"protection": {"regulatoryMaxEirpDbm": 30}}


def test_inquire_world_reads_the_protection(in_tmp, capsys):
    (in_tmp / "req.json").write_text(json.dumps(request_doc()))
    (in_tmp / "world.json").write_text(json.dumps(CAPPED_WORLD))
    assert main(["inquire", "req.json", "--world", "world.json", "--format", "json"]) == 0
    grants = json.loads(capsys.readouterr().out)["grants"]
    assert len(grants) == 76
    assert {g["maxEirpDbm"] for g in grants} == {30.0}


def test_serve_world_reads_the_protection(in_tmp, capsys, monkeypatch):
    replies = []

    def serve_one(service):  # in place of serve_forever: answer one inquiry at the request's time, then stop
        service.now_fn = lambda: NOW
        with service:
            replies.append(post_inquiry(service.host, service.port, request_doc()))

    monkeypatch.setattr("afcsim.wire.AfcService.serve_forever", serve_one)
    (in_tmp / "world.json").write_text(json.dumps(CAPPED_WORLD))
    assert main(["serve", "--world", "world.json", "--port", "0"]) == 0
    assert capsys.readouterr().out.startswith("serving on 127.0.0.1:")
    (reply,) = replies
    assert reply["responseCode"] == "SUCCESS"
    assert len(reply["grants"]) == 76
    assert {g["maxEirpDbm"] for g in reply["grants"]} == {30.0}


def test_inquire_world_answers_as_the_scenario_world(in_tmp, capsys):
    text = (resources.files("afcsim") / "scenarios" / "benign.json").read_text()
    (in_tmp / "world.json").write_text(json.dumps(json.loads(text)["world"]))
    doc = request_doc()  # at AP-1's true position
    (in_tmp / "req.json").write_text(json.dumps(doc))
    assert main(["inquire", "req.json", "--world", "world.json", "--format", "json"]) == 0
    w = load_scenario(text).world
    want = dumps_response(handle_inquiry(decode_request(doc), NOW, w.database, w.policy, w.propagation, w.protection))
    assert capsys.readouterr().out == want + "\n"
    # The scenario's propagation config is read: the defaults answer otherwise.
    assert main(["inquire", "req.json", "--format", "json"]) == 0
    assert capsys.readouterr().out != want + "\n"


def test_inquire_now_override_staleness(in_tmp, capsys):
    (in_tmp / "req.json").write_text(json.dumps(request_doc()))
    assert main(["inquire", "req.json", "--now", "2025-06-20T06:00:00Z"]) == 0
    out = capsys.readouterr().out
    assert "STALE_TIMESTAMP" in out
    assert "grants: 0" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inquire_before_year_1000_pads_the_year(in_tmp, capsys, fmt):
    doc = request_doc()
    doc["location"]["gpsTime"] = "0005-06-20T05:10:00Z"
    (in_tmp / "req.json").write_text(json.dumps(doc))
    assert main(["inquire", "req.json", "--now", "0005-06-20T05:10:00Z", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        body = json.loads(out)
        assert (body["issueTime"], body["expireTime"]) == ("0005-06-20T05:10:00Z", "0005-06-21T05:10:00Z")
        assert iso_to_epoch(body["expireTime"]) - iso_to_epoch(body["issueTime"]) == 86_400.0
    else:
        assert "issue 0005-06-20T05:10:00Z  expire 0005-06-21T05:10:00Z  country US\n" in out


@pytest.mark.parametrize("now", ["not-a-date", "99999-01-01T00:00:00Z", "2025-13-01T00:00:00Z"])
def test_inquire_bad_now_exits_2(in_tmp, capsys, now):
    (in_tmp / "req.json").write_text(json.dumps(request_doc()))
    assert main(["inquire", "req.json", "--now", now]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --now: not an ISO-8601 time: {now!r}") and "Traceback" not in err


@pytest.mark.parametrize("port", ["70000", "65536", "-1", "http"])
def test_serve_bad_port_exits_2_before_binding(in_tmp, capsys, monkeypatch, port):
    def refuse(*args, **kwargs):
        raise AssertionError("the service was started")

    monkeypatch.setattr("afcsim.cli.AfcService", refuse)
    with pytest.raises(SystemExit) as info:
        main(["serve", "--port", port])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --port" in err and "Traceback" not in err


def test_serve_on_a_port_already_bound_exits_2(in_tmp, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the service is serving")

    monkeypatch.setattr("afcsim.wire.AfcService.serve_forever", refuse)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        assert main(["serve", "--port", str(port)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_inquire_bad_request_exits_2(in_tmp, capsys):
    (in_tmp / "req.json").write_text('{"requestId": 5}')
    assert main(["inquire", "req.json"]) == 2
    assert "error:" in capsys.readouterr().err


# --- diff-engines ------------------------------------------------------------


@pytest.fixture
def diff_files(in_tmp):
    (in_tmp / "corpus.json").write_text(json.dumps({"requests": [request_doc()]}))
    (in_tmp / "a.json").write_text(
        json.dumps({"database": DB_DOC, "propagation": {"regimeThresholdM": 1000.0}})
    )
    (in_tmp / "b.json").write_text(
        json.dumps(
            {
                "database": DB_DOC,
                "propagation": {"regimeThresholdM": 1e9, "clutterOffsetDb": 0.0},
            }
        )
    )
    return in_tmp


def test_diff_engines_reports_divergence(diff_files, capsys):
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 0
    out = capsys.readouterr().out
    assert "REQ-1:" in out
    assert not out.startswith("engines agree")
    n = int(out.rsplit("divergences:", 1)[1])
    assert n > 0


def test_diff_engines_json_and_agreement(diff_files, capsys):
    assert main(
        ["diff-engines", "corpus.json", "a.json", "a.json", "--format", "json"]
    ) == 0
    body = json.loads(capsys.readouterr().out)
    assert body == {"divergences": [], "toleranceDb": 0.1}
    assert main(["diff-engines", "corpus.json", "a.json", "a.json"]) == 0
    assert "engines agree on all requests" in capsys.readouterr().out


def test_diff_engines_json_rows_carry_the_channel(diff_files, capsys):
    assert main(["diff-engines", "corpus.json", "a.json", "b.json", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["divergences"]
    assert rows
    for row in rows:
        channel = {"bandwidthMhz", "cfi"} | ({"variant"} if row["bandwidthMhz"] == 320 else set())
        assert set(row) == {"requestId", "eirpA", "eirpB"} | channel


def test_diff_engines_bad_engine_exits_2(diff_files, capsys):
    (diff_files / "b.json").write_text("[]")
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    assert "engine" in capsys.readouterr().err


def test_diff_engines_bad_corpus_exits_2(diff_files, capsys):
    (diff_files / "corpus.json").write_text('{"requests": 5}')
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    assert "corpus" in capsys.readouterr().err


def test_diff_engines_corpus_object_without_requests_exits_2(diff_files, capsys):
    # A misspelt key is no corpus, not an empty one that every pair of worlds agrees on.
    (diff_files / "corpus.json").write_text(json.dumps({"request": [request_doc()]}))
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    out, err = capsys.readouterr()
    assert err == 'error: corpus must be a list of requests or {"requests": [...]}\n'
    assert out == ""


def test_diff_engines_names_the_refused_request(diff_files, capsys):
    bad = request_doc()
    del bad["location"]["latitude"]
    (diff_files / "corpus.json").write_text(json.dumps({"requests": [request_doc(), request_doc(), bad]}))
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    assert capsys.readouterr().err == "error: requests[2]: location.latitude: missing field\n"


def test_diff_engines_bad_policy_in_a_world_file_exits_2(diff_files, capsys):
    (diff_files / "b.json").write_text(json.dumps({"database": DB_DOC, "policy": {"grantLifetimeS": 0}}))
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    assert capsys.readouterr().err == "error: policy: grant lifetime must be > 0\n"


def test_diff_engines_unsupported_bandwidth_exits_2(diff_files, capsys):
    doc = request_doc()
    doc["inquiredBandwidthsMhz"] = [20, 60]
    (diff_files / "corpus.json").write_text(json.dumps([doc]))
    assert main(["diff-engines", "corpus.json", "a.json", "b.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: request REQ-1: unsupported bandwidth 60 MHz\n"


def test_corpus_may_be_bare_list(diff_files, capsys):
    (diff_files / "corpus.json").write_text(json.dumps([request_doc()]))
    assert main(["diff-engines", "corpus.json", "a.json", "a.json"]) == 0
    assert "engines agree" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1", "-0.001", "abc"])
def test_diff_engines_refuses_a_tolerance_that_is_not_finite_and_nonnegative(diff_files, capsys, tolerance):
    for fmt in ("text", "json"):
        with pytest.raises(SystemExit) as info:
            main(["diff-engines", "corpus.json", "a.json", "b.json", "--tolerance", tolerance, "--format", fmt])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tolerance" in err and "Traceback" not in err


def test_diff_engines_tolerance_bounds(diff_files, capsys):
    # The engines differ by about 15 dB on five channels: a tolerance of 0
    # flags them, one over the widest gap does not, and identical engines
    # agree at 0.
    assert main(["diff-engines", "corpus.json", "a.json", "b.json", "--tolerance", "0", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["toleranceDb"] == 0.0
    gaps = [abs(r["eirpA"] - r["eirpB"]) for r in body["divergences"] if None not in (r["eirpA"], r["eirpB"])]
    assert len(gaps) == len(body["divergences"]) == 5
    wide = str(max(gaps) + 1.0)
    assert main(["diff-engines", "corpus.json", "a.json", "b.json", "--tolerance", wide, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["divergences"] == []
    assert main(["diff-engines", "corpus.json", "a.json", "a.json", "--tolerance", "0"]) == 0
    assert "engines agree on all requests" in capsys.readouterr().out


# --- input files that cannot be read ------------------------------------------


def test_simulate_a_directory_exits_2(in_tmp, capsys):
    (in_tmp / "scenarios").mkdir()
    assert main(["simulate", "scenarios"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot read scenario scenarios: ") and err.count("\n") == 1
    assert out == ""


# Each CLI input file, read from x.json, and the name its errors give it. The ids "db" and
# "policy" name the two flags that --world replaced, on inquire and serve.
each_input_file = pytest.mark.parametrize(
    "argv, what",
    [
        (["simulate", "x.json"], "scenario"),
        (["inquire", "x.json"], "request"),
        (["inquire", "req.json", "--world", "x.json"], "world"),
        (["serve", "--world", "x.json"], "world"),
        (["diff-engines", "x.json", "a.json", "b.json"], "corpus"),
        (["diff-engines", "corpus.json", "a.json", "x.json"], "engine config"),
    ],
    ids=["scenario", "request", "db", "policy", "corpus", "engine"],
)


@each_input_file
def test_input_file_that_is_not_utf8_exits_2(diff_files, capsys, argv, what):
    # Latin-1 text, as an editor on another locale may save it.
    (diff_files / "x.json").write_bytes('{"requestId": "Zürich"}'.encode("latin-1"))
    (diff_files / "req.json").write_text(json.dumps(request_doc()))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot read {what} x.json: 'utf-8' codec can't decode") and err.count("\n") == 1
    assert out == ""


@each_input_file
def test_input_file_with_malformed_json_exits_2(diff_files, capsys, argv, what):
    (diff_files / "x.json").write_text('{"a": }')
    (diff_files / "req.json").write_text(json.dumps(request_doc()))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    # A scenario's text is parsed by load_scenario, which knows no file name.
    named = "" if what == "scenario" else f"{what} x.json: "
    assert err == f"error: {named}invalid JSON at line 1: Expecting value\n"
    assert out == ""


@each_input_file
def test_input_file_nested_too_deeply_exits_2(diff_files, capsys, argv, what):
    (diff_files / "x.json").write_text("[" * 100_000)
    (diff_files / "req.json").write_text(json.dumps(request_doc()))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    named = "" if what == "scenario" else f"{what} x.json: "
    assert err == f"error: {named}invalid JSON: nested too deeply\n"
    assert out == ""
