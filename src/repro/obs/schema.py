"""A miniature JSON-Schema validator for profile documents.

The container deliberately carries no third-party validator, so the
checked-in ``profile.schema.json`` is enforced by this dependency-free
subset implementation.  Supported keywords -- the ones the profile
schema actually uses -- are ``type``, ``required``, ``properties``,
``additionalProperties`` (boolean or schema), ``items``, ``enum``
(which pins ``meta.schema_version``), ``$ref`` into ``#/$defs/...``,
and ``$defs``.  Anything else in a schema is ignored,
so tightening the schema with unsupported keywords degrades to "not
checked", never to a false failure.

Runnable as a module (the CI profile-validation step)::

    python -m repro.obs.schema profile.json [...]

exits 0 when every document validates, 1 with one error per line
otherwise.
"""

from __future__ import annotations

import json
import pathlib

#: Where the packaged profile schema lives (checked into the tree).
SCHEMA_PATH = pathlib.Path(__file__).parent / "profile.schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def profile_schema() -> dict:
    """The packaged ``--profile-out`` schema document."""
    return json.loads(SCHEMA_PATH.read_text())


def _check_type(value, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(
            value, bool
        )
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    kind = _TYPES.get(expected)
    return kind is not None and isinstance(value, kind)


def _resolve(ref: str, root: dict) -> dict:
    node = root
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def validate(instance, schema: dict, *, root: "dict | None" = None,
             path: str = "$") -> "list[str]":
    """Every violation of ``schema`` by ``instance`` (empty = valid)."""
    root = schema if root is None else root
    if "$ref" in schema:
        try:
            schema = _resolve(schema["$ref"], root)
        except (KeyError, TypeError):
            return [f"{path}: unresolvable $ref {schema['$ref']!r}"]
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None and not _check_type(instance, expected):
        return [
            f"{path}: expected {expected}, got "
            f"{type(instance).__name__}"
        ]
    allowed = schema.get("enum")
    if allowed is not None and instance not in allowed:
        return [f"{path}: {instance!r} not in {allowed!r}"]
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required key {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for name, value in instance.items():
            if name in properties:
                errors.extend(
                    validate(value, properties[name], root=root,
                             path=f"{path}.{name}")
                )
            elif isinstance(additional, dict):
                errors.extend(
                    validate(value, additional, root=root,
                             path=f"{path}.{name}")
                )
            elif additional is False:
                errors.append(f"{path}: unexpected key {name!r}")
    elif isinstance(instance, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(instance):
                errors.extend(
                    validate(value, items, root=root, path=f"{path}[{i}]")
                )
    return errors


def validate_profile(document) -> "list[str]":
    """Violations of the packaged profile schema (empty = valid)."""
    return validate(document, profile_schema())


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: validate profile JSON files."""
    import sys

    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(
            "usage: python -m repro.obs.schema profile.json [...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for name in argv:
        path = pathlib.Path(name)
        try:
            errors = validate_profile(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            print(f"{name}: unreadable ({exc})")
            failed = True
            continue
        if errors:
            failed = True
            for error in errors:
                print(f"{name}: {error}")
        else:
            print(f"{name}: valid")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())


__all__ = [
    "SCHEMA_PATH",
    "main",
    "profile_schema",
    "validate",
    "validate_profile",
]
