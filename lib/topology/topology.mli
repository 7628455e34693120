(** Destination groups and their intersection structure.

    A topology fixes the process universe [0 .. n-1] and the set [G] of
    destination groups (§2.2 of the paper). On top of it we compute the
    notions of §3: intersection graphs, families, closed paths
    [cpaths(f)], cyclic families [F], the per-process and per-group
    restrictions [F(p)] and [F(g)], and family faultiness. *)

type gid = int
(** Index of a destination group in the topology. *)

type t

val create : n:int -> Pset.t list -> t
(** [create ~n groups] builds a topology over processes [0 .. n-1].
    Raises [Invalid_argument] if a group is empty or mentions a process
    outside the universe, or if two groups are equal. *)

val n : t -> int
(** Number of processes. *)

val processes : t -> Pset.t
(** The whole universe [P]. *)

val num_groups : t -> int

val group : t -> gid -> Pset.t
(** Members of group [g]. *)

val gids : t -> gid list
(** All group indices, in increasing order. *)

val groups_of : t -> int -> gid list
(** [groups_of topo p] is [G(p)], the groups containing process [p]. *)

val intersecting : t -> gid -> gid -> bool
(** Whether two (possibly equal) groups intersect. *)

val inter : t -> gid -> gid -> Pset.t
(** [inter topo g h] is the process set [g ∩ h]. *)

val intersecting_pairs : t -> (gid * gid) list
(** All pairs [(g, h)] with [g < h] and [g ∩ h ≠ ∅]. *)

val process_components : t -> int array
(** The interaction components: two processes are in one component when
    they share a destination group, closed transitively. One label per
    process; the label is the component's smallest process id, so the
    numbering is canonical. Every shared object of Algorithm 1 is keyed
    by groups of the process touching it, so processes in different
    components can never influence each other in any run — the
    independence behind the explorer's persistent sets and
    [Shard]'s split (see DESIGN.md). *)

(** {1 Families and cycles} *)

type family = gid list
(** A family of destination groups: a strictly increasing list of group
    indices. *)

type cpath = gid array
(** An oriented closed path visiting every group of a family exactly
    once: [[|g1; ...; gK|]] stands for the cycle [g1 g2 ... gK g1].
    Edges of the path are [(g1,g2), ..., (g_{K-1},g_K), (g_K,g1)]. *)

val cpath_edges : cpath -> (gid * gid) list

val compare_edge : gid * gid -> gid * gid -> int
(** Lexicographic order on edges: the order {!cpath_edge_set} sorts
    by. *)

val cpath_edge_set : cpath -> (gid * gid) list
(** The undirected edges of a closed path, each written [(g, h)] with
    [g <= h], sorted by {!compare_edge} and without duplicates: equal
    for every rotation and reversal of the path. *)

val cpath_equiv : cpath -> cpath -> bool
(** Two closed paths are equivalent when they visit the same edge set
    ({!cpath_edge_set}). *)

val cpath_reverse_from : cpath -> gid -> cpath
(** [cpath_reverse_from pi g] is the path visiting the same cycle as
    [pi], starting at [g], in the converse direction. *)

val cpath_rotate_to : cpath -> gid -> cpath
(** Same cycle, same direction, re-rooted to start at [g]. *)

val cpaths : t -> family -> cpath list
(** All oriented closed paths of the family's intersection graph
    visiting every group once, i.e. all oriented Hamiltonian cycles.
    Both orientations of each cycle are included; rotations are
    canonicalised (each path starts at the smallest group). Empty iff
    the family is not cyclic. *)

val cyclic_families : t -> family list
(** [F]: all cyclic families over the topology's groups (computed once
    per topology). *)

val families_of_group : t -> family list -> gid -> family list
(** [F(g)]: the cyclic families containing group [g]. *)

val families_of_process : t -> family list -> int -> family list
(** [F(p)]: cyclic families [f] such that [p] belongs to the
    intersection of two distinct groups of [f]. *)

val family_faulty : t -> family -> crashed:Pset.t -> bool
(** A cyclic family is faulty when every closed path visits an edge
    [(g, h)] whose intersection [g ∩ h] is entirely crashed (§3). *)

val h_set : t -> family list -> int -> gid -> gid list
(** [h_set topo fam_all q g] is [H(q, g)] of Lemma 30: the groups [h]
    such that some cyclic family in [F(q)] contains both [g] and [h]
    with [g ∩ h ≠ ∅]. *)

val gamma_groups : t -> family list -> gid -> gid list
(** [gamma_groups topo output g]: given the families currently output
    by the cyclicity detector, the groups [h ≠ g] with [g ∩ h ≠ ∅] such
    that [g] and [h] belong to a common output family (the [γ(g)]
    notation of §3). *)

val pp : Format.formatter -> t -> unit
val pp_family : Format.formatter -> family -> unit
val pp_cpath : Format.formatter -> cpath -> unit

(** {1 Canned topologies} *)

val figure1 : t
(** The running example of the paper (Figure 1): five processes,
    [g1 = {p1, p2}], [g2 = {p2, p3}], [g3 = {p1, p3, p4}],
    [g4 = {p1, p4, p5}] — zero-indexed here as p0..p4, groups 0..3. *)

val disjoint : groups:int -> size:int -> t
(** [groups] pairwise-disjoint groups of [size] processes each. *)

val ring : groups:int -> t
(** [groups ≥ 3] groups arranged in a cycle, consecutive groups sharing
    one process: group i = {2i, 2i+1, (2i+2) mod 2k}. The whole set of
    groups is one cyclic family. *)

val chain : groups:int -> t
(** Groups arranged in a path (acyclic intersection graph, [F = ∅]):
    group i = {2i, 2i+1, 2i+2}. *)

val star : satellites:int -> hub_size:int -> t
(** One hub group intersecting [satellites] otherwise-disjoint
    satellite groups (acyclic, [F = ∅]). *)

val random : Rng.t -> n:int -> groups:int -> max_group_size:int -> t
(** Random topology: [groups] distinct non-empty groups over
    [0 .. n-1], each of size [≤ max_group_size]. *)

val blocking_edges :
  t -> family list -> crashed:Pset.t -> (gid * gid) list
(** Liveness analysis for Algorithm 1 with the paper-exact [γ(g)]
    closure: edges [(g, h)] whose intersection is entirely crashed
    while some {e non-faulty} cyclic family still contains both [g] and
    [h]. On such configurations the commit/stable waits of Algorithm 1
    can block forever (the multi-Hamiltonian-cycle corner of Lemma 25
    — see DESIGN.md). Empty on every topology whose families have a
    single Hamiltonian cycle, e.g. all the canned topologies. *)

val to_dot : t -> ?crashed:Pset.t -> unit -> string
(** GraphViz rendering of the intersection graph: one node per group
    (labelled with its members), one edge per intersecting pair
    (labelled with the intersection). With [crashed], fully-crashed
    intersections are drawn dashed/red — the picture behind Figure 1. *)
