"""Error taxonomy: every error survives a trip through pickle, as it must
when a seed process raises it."""

import pickle

import pytest

from gaplab.errors import GapLabError, MissingCheckpointError


def all_errors(cls=GapLabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from all_errors(sub)


def example(cls):
    if cls is MissingCheckpointError:
        return cls([3, 7])
    return cls("seed 3: value out of range")


def test_missing_checkpoint_message():
    err = MissingCheckpointError([3, 7])
    assert str(err) == "missing checkpoints for iterations: [3, 7]"
    assert err.missing_iterations == [3, 7]


@pytest.mark.parametrize("cls", list(all_errors()), ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    err = example(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
