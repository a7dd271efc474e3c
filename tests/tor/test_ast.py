"""TOR nodes cache their hash, and pickles leave that cache behind."""

import pickle

from repro.tor import ast as T


def test_pickled_nodes_carry_no_cached_hash():
    # String hashes differ per process, so a hash cached in one process
    # (say a QBS worker) must be recomputed in the one that unpickles.
    node = T.Sigma(
        T.SelectFunc((T.FieldCmpConst("name", "=", T.Const("alice")),)),
        T.Top(T.Var("users"), T.BinOp("+", T.Var("i"), T.Const(1))))
    before = hash(node)
    assert all("_hash" in n.__dict__ for n in node.walk()
               if not isinstance(n, T.Const))  # leaves hash directly
    copy = pickle.loads(pickle.dumps(node))
    assert all("_hash" not in n.__dict__ for n in copy.walk())
    assert copy == node and hash(copy) == before
