"""Canonical one-line JSON encoding of messages.

Both service transports write their replies in it, and ``qetsim run``
and ``protocol-verify`` write their machine output in it, so a command
that only runs programs need not load the service to print a line.
"""

import json

# json.dumps with any option set builds a new encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_message(obj: dict) -> str:
    """Canonical one-line encoding used by both transports and the CLI."""
    return _ENCODER.encode(obj)
