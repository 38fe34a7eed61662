let row name suite description prog = { Workload.name; suite; description; prog }

let all =
  [
    row "bh" "olden" "Barnes-Hut n-body with quadtree and stack vector locals" Programs.bh;
    row "bisort" "olden" "bitonic sort over a binary tree (2^11 depth, two passes)"
      Programs.bisort;
    row "em3d" "olden" "bipartite-graph wave propagation, per-node malloc'd arrays"
      Programs.em3d;
    row "health" "olden" "hospital simulation: village tree + patient lists, alloc/free churn"
      Programs.health;
    row "mst" "olden" "Prim's MST with per-vertex chained hash tables" Programs.mst;
    row "perimeter" "olden" "quadtree perimeter (depth 7, ~21k nodes, 3 passes)"
      Programs.perimeter;
    row "power" "olden" "power-system pricing tree, float compute-bound" Programs.power;
    row "treeadd" "olden" "recursive binary-tree build and sum (2^15 nodes, 4 passes)"
      Programs.treeadd;
    row "tsp" "olden" "nearest-neighbour tour over a linked city list" Programs.tsp;
    row "voronoi" "olden" "linked-list merge sort + closest-pair scan, legacy comparator"
      Programs.voronoi;
    row "anagram" "ptrdist" "letter-signature anagram matching, legacy trait table"
      Programs.anagram;
    row "ft" "ptrdist" "leftist-heap insert/delete-min churn (merge-dominated)" Programs.ft;
    row "ks" "ptrdist" "Kernighan-Lin-style partitioning over pointed-to modules" Programs.ks;
    row "yacr2" "ptrdist" "greedy channel routing over heap arrays" Programs.yacr2;
    row "wolfcrypt-dh" "misc" "Diffie-Hellman modexp over mp_int structs, XMALLOC wrappers"
      Programs.wolfcrypt_dh;
    row "sjeng" "misc" "alpha-beta search, global-table board + stack move lists"
      Programs.sjeng;
    row "coremark" "misc" "list + matmul + CRC inside one type-erased arena" Programs.coremark;
    row "bzip2" "misc" "RLE + move-to-front + frequency model over heap buffers"
      Programs.bzip2;
  ]

let find name =
  List.find_opt (fun (w : Workload.t) -> String.equal w.name name) all

let names = List.map (fun (w : Workload.t) -> w.Workload.name) all
