"""Unit tests for the front-end server (access control + IR shipping)."""

import pytest

from repro import Server
from repro.errors import AccessError, TypeCheckError


@pytest.fixture
def server() -> Server:
    s = Server()
    s.create_user("admin", "writer1", "writer")
    s.create_user("admin", "reader1", "reader")
    s.submit(
        "writer1",
        """
        create table T(id varchar(8), n integer)
        create vertex V(id) from table T
        """,
    )
    return s


class TestAccounts:
    def test_admin_exists(self):
        assert "admin" in Server().users

    def test_create_requires_admin(self, server):
        with pytest.raises(AccessError):
            server.create_user("writer1", "other", "reader")

    def test_duplicate_user(self, server):
        with pytest.raises(AccessError):
            server.create_user("admin", "writer1", "reader")

    def test_unknown_role(self, server):
        with pytest.raises(AccessError):
            server.create_user("admin", "x", "superuser")

    def test_drop_user(self, server):
        server.drop_user("admin", "reader1")
        assert "reader1" not in server.users

    def test_cannot_drop_admin(self, server):
        with pytest.raises(AccessError):
            server.drop_user("admin", "admin")

    def test_drop_unknown_user_rejected(self, server):
        # symmetric with create_user: dropping a non-existent account is
        # an error, not a silent no-op
        with pytest.raises(AccessError, match="unknown user"):
            server.drop_user("admin", "ghost")

    def test_drop_is_not_idempotent(self, server):
        server.drop_user("admin", "reader1")
        with pytest.raises(AccessError):
            server.drop_user("admin", "reader1")

    def test_unknown_user_rejected(self, server):
        with pytest.raises(AccessError):
            server.submit("ghost", "select * from table T")


class TestRights:
    def test_reader_can_select(self, server):
        results = server.submit("reader1", "select * from table T")
        assert results[0].kind == "table"

    def test_reader_cannot_create(self, server):
        with pytest.raises(AccessError):
            server.submit("reader1", "create table X(id integer)")

    def test_reader_cannot_ingest(self, server):
        with pytest.raises(AccessError):
            server.submit("reader1", "ingest table T data.csv")

    def test_reader_cannot_write_results(self, server):
        with pytest.raises(AccessError):
            server.submit("reader1", "select * from table T into table R")

    def test_writer_can_write_results(self, server):
        server.submit("writer1", "select * from table T into table R")
        assert server.catalog.is_table("R")


class TestFrontEndPipeline:
    def test_static_error_before_execution(self, server):
        # ill-typed script must be rejected with NO backend effect
        from repro.errors import CatalogError

        with pytest.raises((TypeCheckError, CatalogError)):
            server.submit(
                "writer1",
                "create table Ok(id integer)\n"
                "select * from table Nope",
            )
        assert "Ok" not in server.catalog.tables  # nothing executed

    def test_ir_bytes_accounted(self):
        # binary IR is shipped to the backend cluster only
        s = Server(workers=2)
        s.create_user("admin", "reader1", "reader")
        s.submit("admin", "create table T(id varchar(8), n integer)")
        before = s.ir_bytes_shipped
        s.submit("reader1", "select * from table T")
        assert s.ir_bytes_shipped > before

    def test_params_through_server(self, server):
        server.backend.ingest_rows("T", [("a", 1), ("b", 2)])
        server.catalog.refresh(server.backend)
        out = server.submit(
            "reader1", "select * from table T where n = %N%", params={"N": 2}
        )
        assert out[0].table.num_rows == 1
