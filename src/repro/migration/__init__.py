"""QEMU-like live-migration simulator (pre-copy and post-copy)."""

from repro.migration.engine import Hosts
from repro.migration.postcopy import PostcopyConfig, PostcopyReport, simulate_postcopy
from repro.migration.precopy import PrecopyConfig, simulate_migration
from repro.migration.report import MigrationReport, RoundStats
from repro.migration.vm import SimVM, expected_distinct
from repro.migration.wholevm import WholeVmReport, migrate_whole_vm

__all__ = [
    "Hosts",
    "PostcopyConfig",
    "PostcopyReport",
    "simulate_postcopy",
    "PrecopyConfig",
    "simulate_migration",
    "MigrationReport",
    "RoundStats",
    "SimVM",
    "expected_distinct",
    "WholeVmReport",
    "migrate_whole_vm",
]
