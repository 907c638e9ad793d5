"""Unit tests for :mod:`repro.obs.logconfig`."""

import io
import logging

import pytest

from repro.obs.logconfig import (
    ROOT_LOGGER_NAME,
    configure_logging,
    get_logger,
    verbosity_to_level,
)


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Snapshot/restore the repro logger so tests never leak handlers."""
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    handlers, level = list(logger.handlers), logger.level
    yield
    logger.handlers = handlers
    logger.setLevel(level)


class TestGetLogger:
    def test_unnamed_is_the_root(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"

    def test_names_prefix_into_the_tree(self):
        assert get_logger("ising.kernels").name == "repro.ising.kernels"
        assert get_logger("repro.service").name == "repro.service"

    def test_library_default_has_null_handler(self):
        handlers = logging.getLogger(ROOT_LOGGER_NAME).handlers
        assert any(
            isinstance(h, logging.NullHandler) for h in handlers
        )


class TestVerbosityMap:
    @pytest.mark.parametrize(
        "verbosity,level",
        [
            (-5, logging.ERROR),
            (-1, logging.ERROR),
            (0, logging.WARNING),
            (1, logging.INFO),
            (2, logging.DEBUG),
            (7, logging.DEBUG),
        ],
    )
    def test_mapping(self, verbosity, level):
        assert verbosity_to_level(verbosity) == level


class TestConfigureLogging:
    def test_writes_formatted_records(self):
        stream = io.StringIO()
        logger = configure_logging(verbosity=1, stream=stream)
        get_logger("ising.kernels").info("backend %s", "native32")
        assert logger.level == logging.INFO
        assert (
            "INFO repro.ising.kernels: backend native32" in stream.getvalue()
        )

    def test_quiet_suppresses_warnings(self):
        stream = io.StringIO()
        configure_logging(verbosity=-1, stream=stream)
        get_logger().warning("should be hidden")
        get_logger().error("should appear")
        output = stream.getvalue()
        assert "hidden" not in output
        assert "should appear" in output

    def test_reconfiguration_never_stacks_handlers(self):
        # earlier tests (e.g. the CLI suite) may already have installed
        # the tagged handler; only the managed handler count matters
        def tagged():
            logger = logging.getLogger(ROOT_LOGGER_NAME)
            return [
                h for h in logger.handlers
                if getattr(h, "_repro_cli_handler", False)
            ]

        configure_logging(verbosity=0)
        untagged = len(logging.getLogger(ROOT_LOGGER_NAME).handlers) - 1
        for verbosity in (0, 1, 2):
            configure_logging(verbosity=verbosity)
        assert len(tagged()) == 1
        assert (
            len(logging.getLogger(ROOT_LOGGER_NAME).handlers)
            == untagged + 1
        )
