"""Tests for the campaign service daemon (repro.runner.service)."""

import threading

import pytest

from repro.runner import Engine
from repro.runner.journal import JobJournal, replay_journal
from repro.runner.publisher import SamplePublisher
from repro.runner.config import expand_campaign
from repro.runner.service import (CampaignService, QueueFull,
                                  ServiceDraining, http_get_json,
                                  http_get_text, http_submit)

SMOKE = """
campaign: smoke
defaults: {scale: 0.05, cores: [8]}
matrix:
  - benchmarks: [sctr, mctr]
    locks: [mcs, glock]
"""


@pytest.fixture()
def service(tmp_path):
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"))
    svc.start()
    yield svc
    svc.shutdown()


def _wait_done(svc, job_id, deadline=60.0):
    job = svc.jobs[job_id]
    assert job.done_event.wait(deadline), f"{job_id} never finished"
    return http_get_json(svc.url, f"/jobs/{job_id}")


def test_submit_status_results_roundtrip(service):
    reply = http_submit(service.url, SMOKE)
    assert reply["specs"] == 4
    assert len(reply["digests"]) == 4
    status = _wait_done(service, reply["job"])
    assert status["status"] == "done"
    assert status["executed"] == 4
    body = http_get_text(service.url, f"/jobs/{reply['job']}/results")
    assert len(body.splitlines()) == 4
    for digest in reply["digests"]:
        assert digest in body


def test_concurrent_clients_share_the_warm_cache(service):
    replies = {}

    def client(name):
        replies[name] = http_submit(service.url, SMOKE)

    threads = [threading.Thread(target=client, args=(name,))
               for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = [_wait_done(service, replies[name]["job"]) for name in ("a", "b")]
    # FIFO executor: the overlap runs exactly once, the rest is warm
    assert sorted(s["executed"] for s in stats) == [0, 4]
    warm = next(s for s in stats if s["executed"] == 0)
    assert warm["cache_hits"] == 4
    bodies = [http_get_text(service.url, f"/jobs/{r['job']}/results")
              for r in replies.values()]
    assert bodies[0] == bodies[1]


def test_published_jsonl_matches_inline_backend_run(service, tmp_path):
    reply = http_submit(service.url, SMOKE)
    _wait_done(service, reply["job"])
    served = http_get_text(service.url, f"/jobs/{reply['job']}/results")

    campaign = expand_campaign(SMOKE)
    path = tmp_path / "inline.jsonl"
    engine = Engine()
    publisher = SamplePublisher(path)
    publisher.expect(campaign.digests())
    engine.observers.append(publisher)
    engine.run_specs(campaign.specs)
    publisher.close()
    assert path.read_text() == served


def test_csv_format_submission(service):
    reply = http_submit(service.url, SMOKE, fmt="csv")
    _wait_done(service, reply["job"])
    body = http_get_text(service.url, f"/jobs/{reply['job']}/results")
    lines = body.splitlines()
    assert lines[0].startswith("digest,workload,locks,")
    assert len(lines) == 5  # header + 4 records


def test_invalid_campaign_rejected_400(service):
    with pytest.raises(RuntimeError, match="unknown benchmark 'nope'"):
        http_submit(service.url, "campaign: x\nmatrix:\n"
                                 "  - benchmarks: [nope]\n")
    with pytest.raises(RuntimeError, match="not valid YAML"):
        http_submit(service.url, "campaign: [unclosed\n")


def test_status_and_health_endpoints(service):
    assert http_get_text(service.url, "/healthz").strip() == "ok"
    reply = http_submit(service.url, SMOKE)
    _wait_done(service, reply["job"])
    status = http_get_json(service.url, "/status")
    assert status["backend"] == "inline"
    assert "[engine]" in status["engine"]
    assert any(job["job"] == reply["job"] for job in status["jobs"])


def test_job_reads_finished_only_with_final_counters(service, monkeypatch):
    """/jobs/<id> must not say done while executed/cache_hits are unset."""
    snapshots = []
    close = SamplePublisher.close

    def snapshot_then_close(publisher):
        (job,) = service.jobs.values()
        snapshots.append(job.to_dict())
        close(publisher)

    monkeypatch.setattr(SamplePublisher, "close", snapshot_then_close)
    reply = http_submit(service.url, SMOKE.replace("sctr, mctr", "sctr"))
    status = _wait_done(service, reply["job"])
    assert [s["status"] for s in snapshots] == ["running"]
    assert (status["status"], status["executed"], status["cache_hits"]) \
        == ("done", 2, 0)


def test_kept_alive_connection_answers_without_delayed_ack(service):
    """Headers and body must not wait on the client's delayed ACK."""
    import http.client
    import time

    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        start = time.monotonic()
        for _ in range(20):
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b"ok\n"
        assert time.monotonic() - start < 0.3
    finally:
        conn.close()


def test_unknown_endpoints_404(service):
    import urllib.error
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_get_json(service.url, "/jobs/job-9999")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        http_get_json(service.url, "/nonsense")
    assert excinfo.value.code == 404


# ---------------------------------------------------------------------- #
# backpressure, drain, and journal recovery
# ---------------------------------------------------------------------- #
def test_full_queue_answers_429_with_retry_after(tmp_path):
    release = threading.Event()

    def block(spec):
        release.wait(30.0)
        raise RuntimeError("released")

    engine = Engine(execute_fn=block)
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"),
                          max_queue=1, retry_after=7.0)
    svc.start()
    try:
        first = http_submit(svc.url, SMOKE)        # picked up, blocks
        running = svc.jobs[first["job"]]
        for _ in range(200):                       # wait until it runs
            if running.status == "running":
                break
            threading.Event().wait(0.01)
        assert running.status == "running"
        http_submit(svc.url, SMOKE)                # fills the queue
        with pytest.raises(RuntimeError, match="submit failed .429.") as exc:
            http_submit(svc.url, SMOKE)
        assert exc.value.code == 429
        assert exc.value.retry_after == "7"
    finally:
        release.set()
        for job in svc.jobs.values():
            job.done_event.wait(30.0)
        svc.shutdown()


def test_draining_service_answers_503(tmp_path):
    engine = Engine()
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"))
    svc.start()
    try:
        svc._draining.set()
        with pytest.raises(RuntimeError, match="draining") as exc:
            http_submit(svc.url, SMOKE)
        assert exc.value.code == 503
        assert exc.value.retry_after is not None
        with pytest.raises(ServiceDraining):
            svc.submit(expand_campaign(SMOKE))
    finally:
        svc.shutdown()


def test_queue_bound_validates():
    with pytest.raises(ValueError, match="max_queue"):
        CampaignService(Engine(), results_dir="/tmp/x", max_queue=0)


def test_submissions_are_journaled_before_ack(tmp_path):
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    journal_path = tmp_path / "journal.jsonl"
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"),
                          journal_path=journal_path)
    svc.start()
    try:
        reply = http_submit(svc.url, SMOKE)
        svc.jobs[reply["job"]].done_event.wait(60.0)
    finally:
        svc.shutdown()
    jobs = replay_journal(journal_path)
    job = jobs[reply["job"]]
    assert job.source.strip() == SMOKE.strip()
    assert job.finished and job.status == "done"
    assert job.landed == set(reply["digests"])
    assert job.executed == 4


def test_resume_journal_restores_finished_jobs(tmp_path):
    engine = Engine(cache_dir=str(tmp_path / "cache"))
    journal_path = tmp_path / "journal.jsonl"
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"),
                          journal_path=journal_path)
    svc.start()
    reply = http_submit(svc.url, SMOKE)
    svc.jobs[reply["job"]].done_event.wait(60.0)
    svc.shutdown()

    svc2 = CampaignService(Engine(cache_dir=str(tmp_path / "cache")),
                           results_dir=str(tmp_path / "results"),
                           journal_path=journal_path)
    assert svc2.resume_journal() == []     # nothing unfinished
    restored = svc2.jobs[reply["job"]]
    assert restored.status == "done"
    assert restored.executed == 4 and restored.recovered
    svc2.start()
    try:
        # the job-id sequence continues past the journaled ids
        again = http_submit(svc2.url, SMOKE)
        assert again["job"] != reply["job"]
        svc2.jobs[again["job"]].done_event.wait(60.0)
        assert svc2.jobs[again["job"]].executed == 0   # fully warm
    finally:
        svc2.shutdown()


def test_resume_journal_reexecutes_only_unlanded_specs(tmp_path):
    campaign = expand_campaign(SMOKE)
    digests = campaign.digests()
    warm_engine = Engine(cache_dir=str(tmp_path / "cache"))
    warm_engine.run_specs(campaign.specs[:2])  # 2 of 4 landed pre-crash

    journal_path = tmp_path / "journal.jsonl"
    journal = JobJournal(journal_path)
    journal.job_submitted("job-0007", campaign.name, SMOKE, "jsonl", digests)
    journal.job_started("job-0007")
    journal.spec_dispatched("job-0007", digests)
    for digest in digests[:2]:
        journal.spec_landed("job-0007", digest)
    journal.close()                            # no job_done: a crash

    svc = CampaignService(Engine(cache_dir=str(tmp_path / "cache")),
                          results_dir=str(tmp_path / "results"),
                          journal_path=journal_path)
    recovered = svc.resume_journal()
    assert [job.id for job in recovered] == ["job-0007"]
    assert recovered[0].recovered
    svc.start()
    try:
        job = svc.jobs["job-0007"]
        assert job.done_event.wait(60.0)
        assert job.status == "done"
        assert job.executed == 2               # only the never-landed half
        assert job.cache_hits == 2
        body = http_get_text(svc.url, "/jobs/job-0007/results")
        assert len(body.splitlines()) == 4
        # byte-identical to a from-scratch inline run of the same campaign
        path = tmp_path / "inline.jsonl"
        publisher = SamplePublisher(path)
        publisher.expect(digests)
        inline = Engine()
        inline.observers.append(publisher)
        inline.run_specs(campaign.specs)
        publisher.close()
        assert path.read_text() == body
        # recovery journaled a terminal record: a second replay is a no-op
        assert replay_journal(journal_path)["job-0007"].finished
    finally:
        svc.shutdown()


def test_resume_journal_marks_unexpandable_jobs_failed(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    journal = JobJournal(journal_path)
    journal.job_submitted("job-0003", "gone", "campaign: [unclosed\n",
                          "jsonl", ["d1"])
    journal.close()
    svc = CampaignService(Engine(), results_dir=str(tmp_path / "results"),
                          journal_path=journal_path)
    assert svc.resume_journal() == []
    job = svc.jobs["job-0003"]
    assert job.status == "failed"
    assert "unrecoverable" in job.error
    svc.shutdown()


def test_status_reports_queue_and_journal(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    svc = CampaignService(Engine(), results_dir=str(tmp_path / "results"),
                          journal_path=journal_path, max_queue=5)
    svc.start()
    try:
        status = http_get_json(svc.url, "/status")
        assert status["queue_depth"] == 0
        assert status["max_queue"] == 5
        assert status["draining"] is False
        assert status["journal"] == str(journal_path)
    finally:
        svc.shutdown()


def test_drain_finishes_running_job_and_leaves_queued(tmp_path):
    started = threading.Event()
    release = threading.Event()

    def slow(spec):
        started.set()
        release.wait(30.0)
        from repro.runner.engine import execute_spec
        return execute_spec(spec)

    engine = Engine(execute_fn=slow, cache_dir=str(tmp_path / "cache"))
    journal_path = tmp_path / "journal.jsonl"
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"),
                          journal_path=journal_path)
    svc.start()
    first = http_submit(svc.url, SMOKE)
    assert started.wait(30.0)
    second = http_submit(svc.url, SMOKE)   # still queued when drain begins
    drainer = threading.Thread(target=svc.drain, daemon=True)
    drainer.start()
    release.set()
    drainer.join(60.0)
    assert not drainer.is_alive()
    assert svc.jobs[first["job"]].status == "done"
    assert svc.jobs[second["job"]].status == "queued"
    jobs = replay_journal(journal_path)
    assert jobs[first["job"]].finished
    assert not jobs[second["job"]].finished    # recoverable via resume


def test_failed_job_reports_error(tmp_path):
    def explode(spec):
        raise RuntimeError("boom")

    engine = Engine(execute_fn=explode)
    svc = CampaignService(engine, results_dir=str(tmp_path / "results"))
    svc.start()
    try:
        reply = http_submit(svc.url, SMOKE)
        status = _wait_done(svc, reply["job"])
        assert status["status"] == "failed"
        assert "boom" in status["error"]
        # the executor thread survives the failure: later jobs still run
        again = http_submit(svc.url, SMOKE)
        status = _wait_done(svc, again["job"])
        assert status["status"] == "failed"
    finally:
        svc.shutdown()
