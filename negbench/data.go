package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"negmine/internal/datagen"
	"negmine/internal/item"
	"negmine/internal/loadsim"
)

// dataset is one of the paper's synthetic retail datasets (§3.1). The
// generator's random model — taxonomy, clusters, potentially large
// itemsets and the baskets drawn from them — is fixed by modelSeed, so the
// mining work is the same for every benchmark seed. The benchmark seed then
// relabels every item and category and reorders taxonomy edges, baskets
// and the items inside each basket: each seed hands the programs a
// different input file describing an isomorphic problem.
type dataset struct {
	preset    string // "tall" (fanout 3, 25 roots) or "short" (fanout 9, 100 roots)
	txns      int
	modelSeed int64
}

func (d dataset) params() (datagen.Params, error) {
	var p datagen.Params
	switch d.preset {
	case "tall":
		p = datagen.Tall()
	case "short":
		p = datagen.Short()
	default:
		return p, fmt.Errorf("unknown preset %q", d.preset)
	}
	p.NumTransactions = d.txns
	p.Seed = d.modelSeed
	return p, nil
}

func (d dataset) String() string {
	return fmt.Sprintf("%s, %d baskets, model seed %d", d.preset, d.txns, d.modelSeed)
}

// write generates the dataset, relabels and reorders it with seed, and
// writes the baskets as text and the taxonomy as "parent child" edges. It
// returns the item universe the serve workloads' load draws from, in the
// model's item order under the seed's names: a popularity rank stands for
// the same model item whatever the seed, so every seed's requests ask about
// an isomorphic set of items.
func (d dataset) write(seed int64, basketPath, taxPath string) (loadsim.Dict, error) {
	p, err := d.params()
	if err != nil {
		return loadsim.Dict{}, err
	}
	tax, db, err := datagen.Generate(p)
	if err != nil {
		return loadsim.Dict{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, tax.Size())
	relabel := func(set item.Itemset) {
		perm := rng.Perm(len(set))
		for i, x := range set {
			names[x] = tax.Name(set[perm[i]])
		}
	}
	relabel(tax.Leaves())
	relabel(tax.Categories())

	var edges []string
	for i := range names {
		id := item.Item(i)
		if parent := tax.Parent(id); parent != item.None {
			edges = append(edges, names[parent]+" "+names[id])
		} else if len(tax.Children(id)) == 0 {
			edges = append(edges, names[id])
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if err := writeLines(taxPath, edges); err != nil {
		return loadsim.Dict{}, err
	}

	txs := db.Transactions()
	lines := make([]string, len(txs))
	for li, ti := range rng.Perm(len(txs)) {
		items := txs[ti].Items
		words := make([]string, len(items))
		for k, j := range rng.Perm(len(items)) {
			words[k] = names[items[j]]
		}
		lines[li] = strings.Join(words, " ")
	}
	if err := writeLines(basketPath, lines); err != nil {
		return loadsim.Dict{}, err
	}
	rename := make(map[string]string, len(names))
	for i, name := range names {
		rename[tax.Name(item.Item(i))] = name
	}
	dict := loadsim.DictFromTaxonomy(tax)
	for i, it := range dict.Items {
		dict.Items[i] = rename[it]
	}
	for _, g := range dict.SiblingGroups {
		for i, it := range g {
			g[i] = rename[it]
		}
	}
	return dict, nil
}

func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		w.WriteString(l)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
