"""Answers pinned from the engine's output at the commit that added the
benchmark (numpy backend). The counts are the README census table."""

# dim -> (classes, classes with b1 = 0, orientable classes)
CENSUS = {
    2: (1, 0, 0),
    3: (3, 1, 1),
    4: (12, 2, 0),
    5: (123, 23, 2),
    6: (2536, 352, 0),
}

# sha256 of census_to_jsonl(enumerate_census(dim))
JSONL_SHA256 = {
    2: "0b2d511ee8d9ee076523a590e693d7293e84c7fe1a5c4432ed205c578cfdefd0",
    3: "3dd61533ca9eb97aa6fb1f8e6e44959091e7f84c42fdf0c987e73ea437f266dc",
    4: "b9aba68ef212615e59471ac9edc56cdcaa41b456566e670496c4dfcd120c8555",
    5: "0ff14f9570cfa1ee9cc1e56709a90bcd8bc81eb301d69aa77df0ee097a1e4c35",
    6: "52a8d5f7378324217cff92ab91655d74d5d2542b70bccb2ae7ee934084ef272d",
}

# build_graph(6): (vertices, edges), and the sha256 of both exports
GRAPH_SIZE = (2675, 14973)
EDGES_JSON_SHA256 = (
    "6c6d50d9914a3cc510d97bc36eada187fc1c3edea5c3b67d29207c40cca24074")
DOT_SHA256 = (
    "73362c37ceeca55f708737838e9e32483ccc6c925a7579632db31d3d1ebfccea")
