"""Test-side helpers for the package's frozen records (``series._Record``)."""


def replace(record, **changes):
    """A copy of `record` with the given fields changed, built from its `_fields`.

    An unknown field in `changes` reaches the constructor, which raises
    TypeError for it.
    """
    kept = {name: getattr(record, name) for name in record._fields if name not in changes}
    return type(record)(**kept, **changes)
