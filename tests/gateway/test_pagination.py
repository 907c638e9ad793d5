"""Pagination + state filtering on job listing (store, server, client)."""

import dataclasses

import pytest

from repro.errors import GatewayError, ServiceError
from repro.gateway import (
    DecompositionGateway,
    GatewayClient,
    GatewayConfig,
    RetryPolicy,
)
from repro.service import DecompositionService, JobSpec, SchedulerPolicy

FAST_POLICY = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
)

NO_RETRY = RetryPolicy(max_retries=0)


def make_service(tmp_path):
    # no worker pool: jobs stay queued, which keeps listing stable
    return DecompositionService(
        tmp_path / "svc", n_workers=1, policy=FAST_POLICY
    )


def submit_batch(service, fast_config, count, start=0):
    return [
        service.submit(
            JobSpec(
                workload="cos",
                n_inputs=6,
                config=dataclasses.replace(
                    fast_config, seed=1000 + start + i
                ),
            )
        ).id
        for i in range(count)
    ]


class TestStorePagination:
    def test_pages_partition_the_full_listing(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 7)
        full = [r.id for r in service.jobs_page()[0]]
        assert len(full) == 7

        walked, cursor = [], None
        pages = 0
        while True:
            records, cursor = service.jobs_page(limit=3, cursor=cursor)
            walked.extend(r.id for r in records)
            pages += 1
            if cursor is None:
                break
        assert pages == 3  # 3 + 3 + 1
        assert walked == full  # same order, no skips, no repeats

    def test_cursor_is_stable_under_mid_pagination_submissions(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 4)
        first, cursor = service.jobs_page(limit=2)
        assert cursor is not None

        # new work lands while a reader is mid-walk
        late = submit_batch(service, fast_config, 3, start=50)

        rest, cursor = [], cursor
        while cursor is not None:
            records, cursor = service.jobs_page(limit=2, cursor=cursor)
            rest.extend(r.id for r in records)
        walked = [r.id for r in first] + rest
        # nothing repeated, nothing lost; late arrivals sort after the
        # anchor so they appear exactly once in the continuation
        assert len(walked) == len(set(walked))
        assert set(walked) == set(
            r.id for r in service.jobs_page()[0]
        )
        assert all(job_id in walked for job_id in late)

    def test_state_filter_composes_with_limit(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 3)
        ordered = [r.id for r in service.jobs_page()[0]]
        queued, cursor = service.jobs_page(state="queued", limit=2)
        assert [r.id for r in queued] == ordered[:2]
        # the composite cursor anchors on the last record; a plain job
        # id (what pre-sharding clients hold) continues the same way
        assert cursor.endswith("." + ordered[1])
        for anchor in (cursor, ordered[1]):
            rest, end = service.jobs_page(
                state="queued", limit=2, cursor=anchor
            )
            assert [r.id for r in rest] == ordered[2:]
            assert end is None
        done, _ = service.jobs_page(state="done")
        assert done == []

    def test_invalid_arguments_raise(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 1)
        with pytest.raises(ServiceError, match="unknown job state"):
            service.jobs_page(state="sleeping")
        with pytest.raises(ServiceError, match="limit must be"):
            service.jobs_page(limit=0)
        with pytest.raises(
            ServiceError, match="unknown pagination cursor"
        ):
            service.jobs_page(limit=2, cursor="job-never-existed")

    def test_no_limit_is_the_legacy_single_page(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 2)
        records, cursor = service.jobs_page()
        assert len(records) == 2
        assert cursor is None
        assert [r.id for r in service.store.list_jobs()] == [
            r.id for r in records
        ]


class TestHttpPagination:
    def test_client_pages_and_iterates(self, tmp_path, fast_config):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 5)
        ids = [r.id for r in service.jobs_page()[0]]
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            page, cursor = client.jobs_page(limit=2)
            assert [r.id for r in page] == ids[:2]
            assert cursor.endswith("." + ids[1])
            page, _ = client.jobs_page(limit=2, cursor=cursor)
            assert [r.id for r in page] == ids[2:4]
            assert [
                r.id for r in client.iter_jobs(page_size=2)
            ] == ids
            # unpaginated convenience walks the cursor internally
            assert [r.id for r in client.jobs()] == ids
            queued, _ = client.jobs_page(state="queued", limit=10)
            assert len(queued) == 5

    def test_bad_query_parameters_are_400_envelopes(
        self, tmp_path, fast_config
    ):
        service = make_service(tmp_path)
        submit_batch(service, fast_config, 1)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            client = GatewayClient(gw.url, retry=NO_RETRY)
            for kwargs, fragment in [
                ({"limit": 0}, "limit must be"),
                ({"limit": 2, "cursor": "job-nope"}, "cursor"),
                ({"state": "sleeping"}, "unknown job state"),
            ]:
                with pytest.raises(GatewayError) as excinfo:
                    client.jobs_page(**kwargs)
                assert excinfo.value.status == 400
                assert excinfo.value.code == "invalid_request"
                assert fragment in str(excinfo.value)

    def test_non_numeric_limit_rejected_at_the_server(
        self, tmp_path, fast_config
    ):
        import json
        import urllib.error
        import urllib.request

        service = make_service(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(gw.url + "/v1/jobs?limit=lots")
            assert excinfo.value.code == 400
            body = json.loads(excinfo.value.read())
            assert body["error"]["code"] == "invalid_request"
            assert "limit" in body["error"]["message"]
