"""The GEMS system pieces: server, accounts, IR shipping, plans, pipelining.

Section III of the paper describes GEMS as clients + a front-end server
(access control, user accounts, catalog, static analysis, binary IR) + a
backend.  This example drives those pieces directly:

1. accounts and role-based rights on the front-end server,
2. static rejection of an ill-typed script *before* any backend effect,
3. binary-IR shipping to the (simulated) backend cluster, with byte
   accounting,
4. EXPLAIN plans (strategy, sweep direction, selectivities, schedule),
5. pipelined execution of a dependent statement pair (III-B1) with its
   intermediate-space accounting.

Run:  python examples/gems_server.py
"""

from repro import Server
from repro.errors import AccessError, GraQLError
from repro.workloads.berlin import BERLIN_DDL, generate_berlin


def main() -> None:
    # the backend is a 2-worker simulated cluster: the server ships each
    # statement to it as binary IR
    server = Server(workers=2)

    # 1. accounts & rights -------------------------------------------------
    server.create_user("admin", "etl", "writer")
    server.create_user("admin", "analyst", "reader")
    print("users:", sorted(server.users))

    server.submit("etl", BERLIN_DDL)
    data = generate_berlin(200, seed=7)
    for name, rows in data.tables.items():
        server.backend.ingest_rows(name, rows)
    server.catalog.refresh(server.backend)
    server.cluster.rebuild()  # rows went in behind the statement path
    print(f"loaded: {server.backend}")

    print("\nanalyst tries to create a table (must be refused):")
    try:
        server.submit("analyst", "create table Hack(id integer)")
    except AccessError as e:
        print(f"  refused: {e}")

    # 2. static analysis guards the backend --------------------------------
    print("\nill-typed script (date compared to float) is rejected "
          "with zero backend effect:")
    try:
        server.submit(
            "etl",
            "create table WillNotExist(id integer)\n"
            "select * from graph OfferVtx (validFrom = 3.14) "
            "--product--> ProductVtx ( ) into subgraph bad",
        )
    except GraQLError as e:
        print(f"  rejected: {e}")
    print("  WillNotExist created?", "WillNotExist" in server.catalog.tables)

    # 3. binary IR shipping -------------------------------------------------
    before = server.ir_bytes_shipped
    results = server.submit(
        "analyst",
        "select vendor, count(*) as offers from table Offers "
        "group by vendor order by offers desc",
    )
    print(f"\nanalyst query returned {results[0].table.num_rows} rows; "
          f"IR shipped this call: {server.ir_bytes_shipped - before} bytes "
          f"(total {server.ir_bytes_shipped})")

    # 4. EXPLAIN ------------------------------------------------------------
    from repro.engine.session import Database

    db = Database()
    db.db = server.backend
    db.catalog = server.catalog
    print("\nEXPLAIN of a review-chain query:")
    print(
        db.explain(
            "select * from graph PersonVtx ( ) <--reviewer-- ReviewVtx ( ) "
            "--reviewFor--> ProductVtx (id = 'product3') into subgraph plan1"
        )
    )

    # 5. pipelined pair (III-B1) ---------------------------------------------
    pair = """
    select y.id from graph
    PersonVtx ( ) <--reviewer-- ReviewVtx ( ) --reviewFor--> def y: ProductVtx ( )
    into table reviewCounts

    select top 5 id, count(*) as n from table reviewCounts
    group by id order by n desc, id asc
    """
    results, stats = db.execute_pipelined(pair, num_chunks=8)
    s = stats[0]
    print("\npipelined dependent pair (III-B1):")
    print(f"  total paths {s.total_paths}, peak materialized "
          f"{s.peak_partial_rows} rows across {s.chunks} chunks")
    print(results[1].table.pretty())


if __name__ == "__main__":
    main()
