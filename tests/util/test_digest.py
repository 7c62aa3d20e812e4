"""``stable_digest``: the content digest behind store artifact names,
response-cache keys and ``ETag``\\ s. Its properties are tested with
the store (``tests/store/test_artifact.py``); here, its bytes."""

import repro.store
import repro.store.artifact
from repro.util.digest import stable_digest


def test_output_is_pinned():
    # Response-cache keys and ETags are built on these bytes: a change
    # here re-keys every cached response and artifact.
    assert stable_digest(
        {"threads": [1, 8], "placement": "cyclic",
         "nested": {"b": 2.5, "a": None}},
        ["TRIAD", 3],
    ) == "751f94088ac7546bb83d9168587aa435"
    assert stable_digest() == "cae66941d9efbd404e4d88758ea67670"


def test_the_store_reexports_it():
    assert repro.store.stable_digest is stable_digest
    assert repro.store.artifact.stable_digest is stable_digest
