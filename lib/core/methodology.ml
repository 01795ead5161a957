type pipelining = Unpipelined | Pipelined of int
type floorplanning = Automatic_scatter | Careful
type library_quality = Poor_two_drive | Rich
type sizing_effort = None_minimal | Critical_path_sized
type logic_family = Static_only | Domino_on_critical
type clocking = Asic_tree | Custom_tuned_tree

type process_access =
  | Worst_case_slow_fab
  | Worst_case_typical_fab
  | Speed_tested
  | Best_fab_binned

type t = {
  meth_name : string;
  pipelining : pipelining;
  floorplanning : floorplanning;
  library : library_quality;
  sizing : sizing_effort;
  logic_family : logic_family;
  clocking : clocking;
  process : process_access;
}

let typical_asic =
  {
    meth_name = "typical ASIC";
    pipelining = Unpipelined;
    floorplanning = Automatic_scatter;
    library = Rich;
    sizing = None_minimal;
    logic_family = Static_only;
    clocking = Asic_tree;
    process = Worst_case_slow_fab;
  }

let good_asic =
  {
    meth_name = "best-practice ASIC";
    pipelining = Pipelined 5;
    floorplanning = Careful;
    library = Rich;
    sizing = Critical_path_sized;
    logic_family = Static_only;
    clocking = Asic_tree;
    process = Speed_tested;
  }

let custom =
  {
    meth_name = "custom";
    pipelining = Pipelined 8;
    floorplanning = Careful;
    library = Rich;
    sizing = Critical_path_sized;
    logic_family = Domino_on_critical;
    clocking = Custom_tuned_tree;
    process = Best_fab_binned;
  }
