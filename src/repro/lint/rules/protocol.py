"""Rule ``protocol``: wire-frame tags are exhaustive and non-colliding.

``runtime/frames.py`` is the single source of truth for the wire
protocol: every ``TYPE_*`` tag declared there must

* carry a distinct byte value (no collisions),
* appear in the ``FRAME_NAMES`` mapping (and hence ``FRAME_TYPES``),
* be produced by an ``encode_*`` function,
* be consumed by a branch of ``FrameCodec.read_frame`` (directly or
  through a set constant like ``PAGE_FRAME_TYPES``),
* be dispatched by every endpoint ``FRAME_CONSUMERS`` assigns it to —
  the daemon, the source, or the controller pollers.

All checks are AST-level: deleting a dispatch arm in ``daemon.py``
removes the tag reference and fails ``vecycle lint`` without running a
single migration.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.core import Finding, Project

RULE_ID = "protocol"

FRAMES_PATH = "src/repro/runtime/frames.py"

#: Files that implement each FRAME_CONSUMERS role.
ROLE_FILES: Dict[str, Tuple[str, ...]] = {
    "daemon": ("src/repro/runtime/daemon.py",),
    "source": ("src/repro/runtime/source.py",),
    "controller": (
        "src/repro/orchestrator/registry.py",
        "src/repro/orchestrator/telemetry.py",
    ),
}

_TAG_RE = re.compile(r"^TYPE_[A-Z0-9_]+$")


def _assigned_names(node: ast.Assign) -> List[str]:
    names = []
    for target in node.targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
    return names


def _collect_tags(tree: ast.Module) -> Dict[str, Tuple[int, int]]:
    """``TYPE_*`` name → (value, lineno) from module-level assignments."""
    tags: Dict[str, Tuple[int, int]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for name in _assigned_names(node):
            if _TAG_RE.match(name) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, int):
                tags[name] = (node.value.value, node.lineno)
    return tags


def _collect_tag_sets(tree: ast.Module) -> Dict[str, Set[str]]:
    """Set-constant name → the TYPE_* members it groups.

    Recognises module-level assignments whose value is a
    ``frozenset((TYPE_A, ...))``, ``frozenset({...})``, or a bare
    tuple/set of tag names.  A reference to the set constant counts as
    referencing every member.
    """
    sets: Dict[str, Set[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "frozenset" and value.args:
            value = value.args[0]
        if not isinstance(value, (ast.Tuple, ast.Set, ast.List)):
            continue
        members = {
            elt.id
            for elt in value.elts
            if isinstance(elt, ast.Name) and _TAG_RE.match(elt.id)
        }
        if not members:
            continue
        for name in _assigned_names(node):
            sets[name] = members
    return sets


def _dict_name_keys(tree: ast.Module, dict_name: str) -> Tuple[Set[str], int]:
    """TYPE_* keys of the module-level dict literal called ``dict_name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and dict_name in _assigned_names(node) \
                and isinstance(node.value, ast.Dict):
            keys = {
                key.id
                for key in node.value.keys
                if isinstance(key, ast.Name) and _TAG_RE.match(key.id)
            }
            return keys, node.lineno
    return set(), 0


def _consumer_roles(tree: ast.Module) -> Tuple[Dict[str, Set[str]], int]:
    """FRAME_CONSUMERS as tag-name → roles, plus the dict's lineno."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and "FRAME_CONSUMERS" in \
                _assigned_names(node) and isinstance(node.value, ast.Dict):
            roles: Dict[str, Set[str]] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (isinstance(key, ast.Name) and _TAG_RE.match(key.id)):
                    continue
                entries = set()
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    entries = {
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
                roles[key.id] = entries
            return roles, node.lineno
    return {}, 0


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _function_named(tree: ast.Module, name: str) -> ast.AST | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == name:
            return node
    return None


def _referenced_tags(
    names: Set[str], tag_sets: Dict[str, Set[str]]
) -> Set[str]:
    """Expand direct TYPE_* references plus referenced set constants."""
    tags = {n for n in names if _TAG_RE.match(n)}
    for set_name, members in tag_sets.items():
        if set_name in names:
            tags |= members
    return tags


def check(project: Project) -> Iterable[Finding]:
    """Check frame-tag exhaustiveness across encode/decode/dispatch."""
    findings: List[Finding] = []
    tree = project.tree(FRAMES_PATH)
    tags = _collect_tags(tree)
    tag_sets = _collect_tag_sets(tree)

    # (1) tag collisions
    by_value: Dict[int, str] = {}
    for name, (value, lineno) in sorted(tags.items(), key=lambda i: i[1][1]):
        if value in by_value:
            findings.append(Finding(
                RULE_ID, FRAMES_PATH, lineno,
                f"frame tag {name} collides with {by_value[value]} "
                f"(both 0x{value:02x})",
            ))
        else:
            by_value[value] = name

    # (2) every tag registered in FRAME_NAMES
    name_keys, names_line = _dict_name_keys(tree, "FRAME_NAMES")
    if not name_keys:
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, 1,
            "FRAME_NAMES mapping not found (or empty) in frames.py",
        ))
    for tag in sorted(set(tags) - name_keys):
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, names_line or tags[tag][1],
            f"{tag} is not registered in FRAME_NAMES",
        ))

    # (3) FRAME_TYPES single source of truth must exist
    module_names = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        for name in _assigned_names(node)
    }
    if "FRAME_TYPES" not in module_names:
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, 1,
            "FRAME_TYPES registry (name -> tag) is missing from frames.py",
        ))

    # (4) every tag has an encoder
    encoded: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.startswith("encode"):
            encoded |= _referenced_tags(_names_in(node), tag_sets)
    for tag in sorted(set(tags) - encoded):
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, tags[tag][1],
            f"{tag} has no encoder (no encode_* function references it)",
        ))

    # (5) every tag has a decoder branch in read_frame
    read_frame = _function_named(tree, "read_frame")
    if read_frame is None:
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, 1,
            "FrameCodec.read_frame not found in frames.py",
        ))
    else:
        decoded = _referenced_tags(_names_in(read_frame), tag_sets)
        for tag in sorted(set(tags) - decoded):
            findings.append(Finding(
                RULE_ID, FRAMES_PATH, tags[tag][1],
                f"{tag} has no decoder branch in FrameCodec.read_frame",
            ))

    # (6) every tag is dispatched by each endpoint that consumes it
    consumers, consumers_line = _consumer_roles(tree)
    if not consumers:
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, 1,
            "FRAME_CONSUMERS dispatch registry is missing from frames.py",
        ))
    for tag in sorted(set(tags) - set(consumers)):
        findings.append(Finding(
            RULE_ID, FRAMES_PATH, consumers_line or tags[tag][1],
            f"{tag} has no FRAME_CONSUMERS entry (who dispatches it?)",
        ))
    for tag, roles in sorted(consumers.items()):
        if tag not in tags:
            findings.append(Finding(
                RULE_ID, FRAMES_PATH, consumers_line,
                f"FRAME_CONSUMERS lists unknown tag {tag}",
            ))
            continue
        if not roles:
            findings.append(Finding(
                RULE_ID, FRAMES_PATH, consumers_line,
                f"FRAME_CONSUMERS entry for {tag} names no consumer",
            ))
        for role in sorted(roles):
            files = ROLE_FILES.get(role)
            if files is None:
                findings.append(Finding(
                    RULE_ID, FRAMES_PATH, consumers_line,
                    f"FRAME_CONSUMERS assigns {tag} to unknown role "
                    f"{role!r} (known: {', '.join(sorted(ROLE_FILES))})",
                ))
                continue
            # Only a *direct* tag reference counts as a dispatch arm.
            # Set constants (PAGE_FRAME_TYPES, ...) are membership
            # filters — expanding them here would let a deleted
            # per-tag handler hide behind a broad `in` check.
            dispatched = False
            for rel in files:
                if not project.exists(rel):
                    continue
                if tag in _names_in(project.tree(rel)):
                    dispatched = True
                    break
            if not dispatched:
                findings.append(Finding(
                    RULE_ID, FRAMES_PATH, tags[tag][1],
                    f"{tag} is not dispatched by its {role!r} consumer "
                    f"({' or '.join(files)}) — dispatch arm missing?",
                ))
    return findings
